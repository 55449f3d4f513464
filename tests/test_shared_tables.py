"""The four checks of `verify` on one `semantics.Tables`: their reports are
those of the checkers called one by one on fresh tables, no step is derived
and no role projected twice across them, and tables made under other rules
raise."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from routedmpst import cli, semantics, simulator, wellformed
from routedmpst.analysis import (
    DEFAULT_STATE_CAP, PreconditionError, check_deadlock_freedom, check_encoding_bisim,
    check_trace_equivalence,
)
from routedmpst.cli import main
from routedmpst.core import Role, participants
from routedmpst.encoding import encode_global
from routedmpst.semantics import RuleTableChanged, Tables
from routedmpst.wellformed import check_wf

from corpus import CORPUS_ROUTERS, PROTOCOL_DIR, load
from mutation import rules_counted, rules_disabled
from strategies import ROLE_POOL, global_types


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
    for module in (cli, semantics, simulator, wellformed):
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
    # `cli` makes, and the bisimulation finds it again for its initial state.
    made = _encodings(monkeypatch, load("Battleships"))
    path = str(PROTOCOL_DIR / "Battleships.scr")
    assert main(["verify", path, "Battleships", "--router", CORPUS_ROUTERS["Battleships"]]) == 0
    capsys.readouterr()
    assert len(made) == 2 and made[0] is made[1]


def test_simulate_encodes_once_and_projects_each_role_of_each_type_once(monkeypatch, capsys):
    # As above; the precondition of `run_session` and `validate_log` each
    # ask `Tables.encode` for the encoding.
    calls = []
    for module in (cli, semantics, simulator, wellformed):
        def counting(g, r, real=module.project):
            calls.append((g, r))
            return real(g, r)
        monkeypatch.setattr(module, "project", counting)
    made = _encodings(monkeypatch, load("TravelAgency"))
    path = str(PROTOCOL_DIR / "TravelAgency.scr")
    assert main(["simulate", path, "TravelAgency", "--router", "S"]) == 0
    assert capsys.readouterr().out.endswith("# conformance=ok\n")
    # The protocol (for the machines) and its encoding (for the precondition
    # and the log check), each projected onto A, B and S.
    assert len(made) == 2 and made[0] is made[1]
    assert len({(id(g), r) for g, r in calls}) == 6
    assert len(calls) == 6


def test_tables_made_under_other_rules_raise():
    g, router = load("TravelAgency"), Role("S")
    before = Tables()
    with rules_disabled("Gr4"):
        during = Tables()
        for check in _checks(g, router, 4, DEFAULT_STATE_CAP):
            with pytest.raises(RuleTableChanged):
                check(tables=before)
    for check in _checks(g, router, 4, DEFAULT_STATE_CAP):
        with pytest.raises(RuleTableChanged):
            check(tables=during)
    assert not before.ids.derived and not during.ids.derived
