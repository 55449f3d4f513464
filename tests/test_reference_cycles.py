"""The frontend, the checkers, log validation and EFSM construction leave no
reference cycles behind for the cyclic garbage collector."""

import gc

from routedmpst.analysis import (
    check_deadlock_freedom, check_encoding_bisim, check_trace_equivalence,
)
from routedmpst.core import Role, participants
from routedmpst.efsm import build_efsm
from routedmpst.encoding import encode_global
from routedmpst.projection import project
from routedmpst.scribble import elaborate, parse_module
from routedmpst.simulator import SimConfig, run_session, validate_log

from corpus import PROTOCOL_DIR, load


def _assert_no_cycles(work):
    work()  # first calls may fill lasting caches of the interpreter
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_checkers_leave_no_reference_cycles():
    g, router = load("TravelAgency"), Role("S")
    log = run_session(g, router, None, SimConfig(seed=0))

    def work():
        encoded = encode_global(g, router)
        check_trace_equivalence(encoded, 6)
        check_deadlock_freedom(encoded, router)
        check_encoding_bisim(g, router, 6)
        validate_log(g, router, log)
        for role in (Role("A"), Role("B"), router):
            build_efsm(project(g, role), role)

    _assert_no_cycles(work)


def test_efsm_and_simulation_leave_no_reference_cycles():
    g, router = load("Battleships"), Role("Svr")

    def work():
        for role in sorted(participants(g)):
            build_efsm(project(g, role), role)
        run_session(g, router, None, SimConfig(seed=0))

    _assert_no_cycles(work)


def test_frontend_leaves_no_reference_cycles():
    path = PROTOCOL_DIR / "TravelAgency.scr"
    text = path.read_text()
    decls = parse_module(text, str(path))
    _assert_no_cycles(lambda: parse_module(text, str(path)))
    _assert_no_cycles(lambda: elaborate(decls, "TravelAgency"))
