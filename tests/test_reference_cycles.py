"""The checkers, log validation and EFSM construction leave no reference
cycles behind for the cyclic garbage collector."""

import gc

from routedmpst.analysis import check_trace_equivalence
from routedmpst.core import Role
from routedmpst.efsm import build_efsm
from routedmpst.encoding import encode_global
from routedmpst.projection import project
from routedmpst.simulator import SimConfig, run_session, validate_log

from corpus import load


def test_checkers_leave_no_reference_cycles():
    g, router = load("TravelAgency"), Role("S")
    log = run_session(g, router, None, SimConfig(seed=0))

    def work():
        check_trace_equivalence(encode_global(g, router), 6)
        validate_log(g, router, log)
        for role in (Role("A"), Role("B"), router):
            build_efsm(project(g, role), role)

    work()  # first calls may fill lasting caches of the interpreter
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()
