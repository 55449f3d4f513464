"""The four checks of `verify` on one `semantics.Tables`: their reports are
those of the checkers called one by one on fresh tables, no step is derived,
no type object validated and no role projected twice across them, global
step memo entries are in `sort_key` order, a canonically repeated
trace-equivalence search runs once, and a `Tables` steps by the rules it
was made under."""

import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from routedmpst import cli, core, semantics, simulator
from routedmpst.analysis import (
    DEFAULT_STATE_CAP, FAIL, PASS, PreconditionError, check_deadlock_freedom,
    check_encoding_bisim, check_trace_equivalence,
)
from routedmpst.cli import main
from routedmpst.core import CanonicalIds, Role, canonicalize, participants
from routedmpst.encoding import encode_global
from routedmpst.semantics import Tables
from routedmpst.wellformed import check_wf

import canonical_oracle
from corpus import CORPUS_ROUTERS, PROTOCOL_DIR, load
from mutation import rules_counted, rules_disabled
from strategies import ROLE_POOL, global_types

GOLDEN = Path(__file__).resolve().parent / "golden"


def _checks(g, router, depth, cap):
    """The four checks of `verify`, in its order, each taking `tables`."""
    encoded = encode_global(g, router)
    return [
        lambda **kw: check_trace_equivalence(g, depth, cap, **kw),
        lambda **kw: check_trace_equivalence(encoded, depth, cap, **kw),
        lambda **kw: check_deadlock_freedom(encoded, router, cap, **kw),
        lambda **kw: check_encoding_bisim(g, router, depth, cap, **kw),
    ]


def _outcome(check, **kw):
    try:
        return check(**kw).lines()
    except PreconditionError as exc:
        return repr(exc)


def _shared_equals_fresh(g, router, depth, cap):
    checks = _checks(g, router, depth, cap)
    tables = Tables()
    shared = [_outcome(check, tables=tables) for check in checks]
    assert shared == [_outcome(check) for check in checks]


@pytest.mark.parametrize("depth, cap", [(4, DEFAULT_STATE_CAP), (6, DEFAULT_STATE_CAP),
                                        (8, DEFAULT_STATE_CAP), (8, 6)])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_shared_tables_report_as_fresh_ones_on_the_corpus(name, depth, cap):
    _shared_equals_fresh(load(name), Role(CORPUS_ROUTERS[name]), depth, cap)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(global_types(depth=4, roles=ROLE_POOL), st.data())
def test_shared_tables_report_as_fresh_ones_on_well_formed_types(g, data):
    assume(check_wf(g).ok and participants(g))
    router = data.draw(st.sampled_from(sorted(participants(g), key=lambda r: r.name)))
    # A cap, since the deadlock search of a type whose buffers grow never closes.
    _shared_equals_fresh(g, router, 6, 300)


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_verify_derives_each_step_once_across_its_checks(name, capsys):
    path = str(PROTOCOL_DIR / f"{name}.scr")
    with rules_counted() as calls:
        assert main(["verify", path, name, "--router", CORPUS_ROUTERS[name]]) == 0
    capsys.readouterr()
    assert calls
    assert sorted(key[0] for key, (_, n) in calls.items() if n > 1) == []


def test_verify_projects_each_role_of_each_type_once(monkeypatch, capsys):
    # Every module that imported `project` calls it at the top level; the
    # recursive calls inside `projection` are not counted.
    calls = []
    for module in (cli, semantics):
        def counting(g, r, real=module.project):
            calls.append((g, r))
            return real(g, r)
        monkeypatch.setattr(module, "project", counting)
    path = str(PROTOCOL_DIR / "Battleships.scr")
    assert main(["verify", path, "Battleships", "--router", CORPUS_ROUTERS["Battleships"],
                 "--depth", "12"]) == 0
    capsys.readouterr()
    # The protocol and its encoding, each projected onto P1, P2 and Svr.
    assert len({(id(g), r) for g, r in calls}) == 6
    assert len(calls) == 6


def test_verify_validates_each_type_object_at_most_once(monkeypatch, capsys):
    # The interner validates an object only the first time it meets it, so
    # the protocol, its encoding and each projection are validated once
    # across the four checks.  The map keeps each object, so an id is not
    # reused.
    calls = {}
    real = semantics.validate

    def counting(t, **kw):
        calls.setdefault(id(t), [t, 0])[1] += 1
        return real(t, **kw)
    monkeypatch.setattr(semantics, "validate", counting)
    path = str(PROTOCOL_DIR / "Battleships.scr")
    assert main(["verify", path, "Battleships", "--router", CORPUS_ROUTERS["Battleships"]]) == 0
    capsys.readouterr()
    assert calls
    assert [t for t, n in calls.values() if n > 1] == []


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_global_memo_entries_are_in_sort_key_order_after_verify(name, monkeypatch, capsys):
    made = []

    def making():
        made.append(Tables())
        return made[-1]
    monkeypatch.setattr(cli, "Tables", making)
    path = str(PROTOCOL_DIR / f"{name}.scr")
    assert main(["verify", path, name, "--router", CORPUS_ROUTERS[name]]) == 0
    capsys.readouterr()
    (tables,) = made
    entries = [steps for (_, role, _), steps in tables.derived.items() if role is None]
    assert entries
    for steps in entries:
        keys = [label.sort_key() for label in steps]
        assert keys == sorted(keys)


def _encodings(monkeypatch, protocol):
    """The encodings of `protocol` that `Tables.encode` returns while the
    test runs.  The `encode` command's `encode_global` fails the test: an op
    encodes only through its `Tables`."""
    made = []

    def counting(self, g, s, real=Tables.encode):
        out = real(self, g, s)
        if g == protocol:
            made.append(out)
        return out
    monkeypatch.setattr(Tables, "encode", counting)
    monkeypatch.setattr(cli, "encode_global", lambda g, s: pytest.fail("encode_global"))
    return made


def test_verify_encodes_its_protocol_once(monkeypatch, capsys):
    # The encoded trace equivalence and deadlock checks take the encoding
    # `cli` makes; the bisimulation encodes state ids, not types.
    made = _encodings(monkeypatch, load("Battleships"))
    path = str(PROTOCOL_DIR / "Battleships.scr")
    assert main(["verify", path, "Battleships", "--router", CORPUS_ROUTERS["Battleships"]]) == 0
    capsys.readouterr()
    assert len(made) == 1


def test_simulate_encodes_once_and_projects_each_role_of_each_type_once(monkeypatch, capsys):
    # As above; only the precondition of `run_session` asks `Tables.encode`
    # for the encoding: the session and its log check run the protocol.
    calls = []
    for module in (cli, semantics):
        def counting(g, r, real=module.project):
            calls.append((g, r))
            return real(g, r)
        monkeypatch.setattr(module, "project", counting)
    made = _encodings(monkeypatch, load("TravelAgency"))
    path = str(PROTOCOL_DIR / "TravelAgency.scr")
    assert main(["simulate", path, "TravelAgency", "--router", "S"]) == 0
    assert capsys.readouterr().out.endswith("# conformance=ok\n")
    # The protocol (for the machines and the log check) and its encoding
    # (for the precondition), each projected onto A, B and S.
    assert len(made) == 1
    assert len({(id(g), r) for g, r in calls}) == 6
    assert len(calls) == 6


@pytest.mark.parametrize("routed", [False, True], ids=["canonical", "routed"])
def test_a_session_and_its_log_check_project_each_role_of_each_type_once(
        monkeypatch, routed):
    # In canonical mode the machines and the log check read the protocol's
    # projections, the precondition its encoding's; in routed mode all three
    # read the encoding's.  A routed input is decoded once, so the encoding
    # memo finds the same protocol object every time.
    calls = []

    def counting(g, r, real=semantics.project):
        calls.append((g, r))
        return real(g, r)
    monkeypatch.setattr(semantics, "project", counting)
    router = Role("S")
    g = encode_global(load("TravelAgency"), router) if routed else load("TravelAgency")
    tables = Tables()
    log = simulator.run_session(g, router, tables=tables)
    assert simulator.validate_log(g, router, log, tables=tables) is True
    projected = 3 if routed else 6
    assert len({(id(g), r) for g, r in calls}) == projected
    assert len(calls) == projected


def test_simulate_validates_and_walks_each_session_projection_once(monkeypatch, capsys):
    """One `simulate` op: the machines, the precondition and the log check
    share the op's one interner, so each projection of the session type is
    validated once and walked once.  Recursion unfolds on ids only: no
    module of the package unfolds a type object, and the tests' unfolding
    (`canonical_oracle.unfold_once`) is never called."""
    projections = {}

    def projecting(g, r, real=semantics.project):
        out = real(g, r)
        projections[id(out)] = (out, r, id(g))
        return out
    validated, walked, depth = Counter(), Counter(), [0]
    real_validate, real_walk = core._validate, CanonicalIds._walk

    def validating(u, bound, allow_free):
        if not depth[0]:  # a root call: one validation
            validated[id(u)] += 1
        depth[0] += 1
        try:
            return real_validate(u, bound, allow_free)
        finally:
            depth[0] -= 1

    def walking(self, t):
        walked[id(t)] += 1
        return real_walk(self, t)
    monkeypatch.setattr(semantics, "project", projecting)
    monkeypatch.setattr(core, "_validate", validating)
    monkeypatch.setattr(CanonicalIds, "_walk", walking)
    monkeypatch.setattr(canonical_oracle, "unfold_once", lambda t: pytest.fail("unfold_once"))
    path = str(PROTOCOL_DIR / "Battleships.scr")
    assert main(["simulate", path, "Battleships", "--router", "Svr"]) == 0
    assert capsys.readouterr().out.endswith("# conformance=ok\n")
    # The protocol's projections, which the machines and the log check
    # read, once each; its encoding's, which only the precondition reads
    # (it projects, and neither validates nor walks), not at all.
    counts = {(g, r): (validated[key], walked[key]) for key, (_, r, g) in projections.items()}
    session = {g for (g, _), count in counts.items() if count != (0, 0)}
    assert len(session) == 1
    assert sorted(r.name for g, r in counts if g in session) == ["P1", "P2", "Svr"]
    assert {count for (g, _), count in counts.items() if g in session} == {(1, 1)}
    assert {count for (g, _), count in counts.items() if g not in session} <= {(0, 0)}
    assert [name for name, module in sys.modules.items()
            if name.split(".")[0] == "routedmpst" and hasattr(module, "unfold_once")] == []


def test_a_tables_keeps_the_rules_it_was_made_with():
    # Without Gr4 the global LTS loses the actions that commute past a
    # prefix, and Battleships' projections no longer match it.
    g = load("Battleships")
    before = Tables()
    with rules_disabled("Gr4"):
        during = Tables()
        assert check_trace_equivalence(g, 8, tables=before).verdict == PASS
    assert check_trace_equivalence(g, 8, tables=during).verdict == FAIL


def _config_steps_counted(monkeypatch):
    """The number of `CompiledConfigurations.steps` calls so far, in a list."""
    calls = [0]
    real = semantics.CompiledConfigurations.steps

    def counting(self, key):
        calls[0] += 1
        return real(self, key)
    monkeypatch.setattr(semantics.CompiledConfigurations, "steps", counting)
    return calls


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_a_canonically_equal_type_reads_the_first_trace_equivalence_report(name, monkeypatch):
    # Its canonical form has other binder names and sorted branches, so it
    # is another object with the same canonical id: the second check
    # returns the first report and steps no configuration.
    g = load(name)
    tables = Tables()
    calls = _config_steps_counted(monkeypatch)
    first = check_trace_equivalence(g, 6, tables=tables)
    searched = calls[0]
    twin = canonicalize(g)
    assert searched and twin != g
    assert check_trace_equivalence(twin, 6, tables=tables) is first
    assert calls[0] == searched
    # Another depth is another search.
    check_trace_equivalence(g, 5, tables=tables)
    assert calls[0] > searched


def test_verify_searches_trace_equivalence_once_where_the_encoding_is_the_protocol(
        monkeypatch, capsys):
    # Every interaction of Game involves its router, so its encoding is
    # canonically itself, and both trace-equivalence checks are one search.
    searches = []
    real = semantics.CompiledConfigurations.__init__

    def counting(self, c, tables=None):
        searches.append(c)
        real(self, c, tables)
    monkeypatch.setattr(semantics.CompiledConfigurations, "__init__", counting)
    path = str(PROTOCOL_DIR / "Game.scr")
    assert main(["verify", path, "Game", "--router", CORPUS_ROUTERS["Game"], "--depth", "6"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_Game.txt").read_text()
    assert len(searches) == 1
