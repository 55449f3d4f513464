from pathlib import Path

import pytest

from routedmpst.analysis import (
    FAIL, INCONCLUSIVE, PreconditionError, StateBudgetExceeded, check_deadlock_freedom,
    check_encoding_bisim, check_trace_equivalence, config_traces,
    global_traces, reachable_states,
)
from routedmpst import semantics
from routedmpst.core import (
    GComm, GEnd, GRec, Role, canonicalize, direct_recv, direct_send, routed_recv,
    routed_send, validate,
)
from routedmpst.encoding import encode_global
from routedmpst.semantics import config_steps, global_steps, project_configuration

import naive_enumerator
from trace_set_oracle import is_prefix_closed
from mutation import rules_disabled
from corpus import (
    CORPUS_ROUTERS, G_EX, G_EX_ROUTED, G_TRAVEL, G_TRAVEL_ROUTED, M1, M2, P,
    Q, S, SR, load,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

REFERENCE_PLAIN_TRACE = (
    direct_send(SR, Q, M2),
    direct_send(P, Q, M1),
    direct_recv(P, Q, M1),
    direct_recv(SR, Q, M2),
)
REFERENCE_ENCODED_TRACE = (
    direct_send(SR, Q, M2),
    routed_send(P, Q, SR, M1),
    routed_recv(P, Q, SR, M1),
    direct_recv(SR, Q, M2),
)


def test_reference_traces_accepted():
    assert REFERENCE_PLAIN_TRACE in global_traces(G_EX, 4)
    assert REFERENCE_ENCODED_TRACE in global_traces(G_EX_ROUTED, 4)


def test_global_traces_of_end():
    assert global_traces(GEnd(), 5).traces == frozenset({()})
    assert config_traces(GEnd(), 5).traces == frozenset({()})


def test_trace_sets_are_prefix_closed():
    for g in (G_EX, G_EX_ROUTED, G_TRAVEL):
        assert is_prefix_closed(global_traces(g, 5))
        assert is_prefix_closed(config_traces(g, 5))


def test_global_traces_agree_with_naive_enumerator():
    for name in ("TravelAgency", "PingPong", "Game", "Battleships"):
        g = load(name)
        for depth in (0, 2, 4, 6):
            assert global_traces(g, depth).traces == \
                frozenset(naive_enumerator.traces(g, depth)), (name, depth)


def test_naive_enumerator_agrees_on_routed_terms():
    for g in (G_EX_ROUTED, G_TRAVEL_ROUTED):
        assert global_traces(g, 5).traces == frozenset(naive_enumerator.traces(g, 5))


def test_trace_equivalence_corpus():
    for name, router in CORPUS_ROUTERS.items():
        g = load(name)
        assert check_trace_equivalence(g, 8).passed, name
        assert check_trace_equivalence(encode_global(g, Role(router)), 8).passed, name


def test_trace_equivalence_end():
    assert check_trace_equivalence(GEnd(), 4).passed


def test_trace_equivalence_monotone_in_depth():
    for depth in range(0, 8):
        assert check_trace_equivalence(G_TRAVEL_ROUTED, depth).passed


def test_known_gap_trace_equivalence_not_universal_for_routed_types():
    # Pinned divergence between the global and configuration semantics on a
    # routed type: after `A->C:m2` is sent but not yet received, the global
    # rules let A hand the next routed message to router C (the transit rule
    # only protects the pending receiver C), while C's local type sits at a
    # branch with peer A, whose router-first rule blocks actions with
    # subject A.  The equivalence is stated for canonical types and holds
    # there; encodings are instance-checked on the corpus instead.
    from routedmpst.core import GComm, GEnd, MsgLabel
    m1, m2, m4 = MsgLabel("m1"), MsgLabel("m2"), MsgLabel("m4")
    A, B, C = Role("A"), Role("B"), Role("C")
    g = GComm(B, A, ((m1, GComm(A, C, ((m2, GComm(A, B, ((m4, GEnd()),))),))),))
    assert check_trace_equivalence(g, 5).passed
    encoded = encode_global(g, C)
    report = check_trace_equivalence(encoded, 5)
    assert report.verdict == FAIL
    assert report.counterexample is not None
    assert "global-only" in report.counterexample.detail


def test_trace_equivalence_mutation_gr4_fails_with_witness():
    g = load("Battleships")
    with rules_disabled("Gr4"):
        report = check_trace_equivalence(g, 8)
    assert report.verdict == FAIL
    assert report.counterexample is not None
    assert report.counterexample.trace  # shortest distinguishing trace


def test_deadlock_freedom_corpus():
    for name, router in CORPUS_ROUTERS.items():
        g = encode_global(load(name), Role(router))
        report = check_deadlock_freedom(g, Role(router))
        assert report.passed, name


def test_deadlock_search_unfolds_each_binder_once(unfoldings):
    """The step rules unfold through the table's interner, and an unfolding
    copies no subterm it leaves unchanged, so the states of a search share
    each binder's one unfolding: no binder is unfolded twice, not even as a
    structurally equal copy."""
    router = Role(CORPUS_ROUTERS["Battleships"])
    assert check_deadlock_freedom(encode_global(load("Battleships"), router), router).passed
    assert unfoldings
    assert len(set(unfoldings)) == len(unfoldings)


def test_deadlock_freedom_end():
    assert check_deadlock_freedom(GEnd(), Role("any")).passed


@pytest.mark.parametrize("g", [
    GRec("x", GEnd()),
    GRec("x", GRec("y", GEnd())),
    GComm(P, Q, ((M1, GRec("x", GEnd())),)),
    GComm(P, Q, ((M1, GRec("x", GEnd())), (M2, GEnd()))),
    GComm(P, Q, ((M1, GEnd()), (M2, GRec("x", GEnd())))),
])
def test_deadlock_freedom_unused_binder_over_end_is_terminal(g):
    """A state is terminal when its canonical form is end, whichever
    structurally different type of that state the search met first."""
    assert check_deadlock_freedom(g, P).passed


def test_deadlock_freedom_requires_routed_wf():
    with pytest.raises(PreconditionError):
        check_deadlock_freedom(G_TRAVEL, S)


def test_deadlock_freedom_mutation_gr7_fails():
    g = encode_global(G_TRAVEL, S)
    with rules_disabled("Gr7"):
        report = check_deadlock_freedom(g, S)
    assert report.verdict == FAIL
    assert report.counterexample is not None
    assert "stuck" in report.counterexample.detail


def test_encoding_bisim_example_and_corpus():
    assert check_encoding_bisim(G_EX, SR, 6).passed
    assert check_encoding_bisim(GEnd(), SR, 4).passed
    assert check_encoding_bisim(G_TRAVEL, S, 10).passed
    for name, router in CORPUS_ROUTERS.items():
        assert check_encoding_bisim(load(name), Role(router), 8).passed, name


def test_encoding_bisim_validates_only_its_input(monkeypatch):
    """The encoded states are encodings of validated plain states, so the
    check validates nothing but the type it is given."""
    calls = []

    def counting(t, **kwargs):
        calls.append(t)
        return validate(t, **kwargs)

    monkeypatch.setattr(semantics, "validate", counting)
    g = load("Battleships")
    assert check_encoding_bisim(g, Role(CORPUS_ROUTERS["Battleships"]), 12).passed
    assert calls == [g]


def test_encoding_bisim_mutation_detected():
    # Killing the routed-delivery rule must break the transition
    # correspondence (the encoded side loses steps the plain side keeps).
    with rules_disabled("Gr7"):
        report = check_encoding_bisim(G_TRAVEL, S, 10)
    assert report.verdict == FAIL


def test_exploration_is_deterministic():
    a = check_trace_equivalence(G_TRAVEL_ROUTED, 8)
    b = check_trace_equivalence(G_TRAVEL_ROUTED, 8)
    assert (a.verdict, a.states_visited, a.counterexample) == \
        (b.verdict, b.states_visited, b.counterexample)


def test_state_budget_reports_inconclusive():
    report = check_trace_equivalence(G_TRAVEL_ROUTED, 8, state_cap=3)
    assert report.verdict == INCONCLUSIVE
    assert report.counterexample is None


def test_no_over_serialisation_invariant():
    enc = encode_global(G_EX, SR)
    initial = {label for label, _ in global_steps(enc)}
    assert direct_send(SR, Q, M2) in initial


def test_bounded_buffer_occupancy_regression():
    # Not a theorem: a regression guard over the corpus at depth 12.  Two
    # consecutive server sends towards a lagging player can stack, so the
    # observed bound is two, not one.
    expected = {"TravelAgency": 1, "PingPong": 1, "Game": 2, "Battleships": 2}
    for name, router in CORPUS_ROUTERS.items():
        g = encode_global(load(name), Role(router))
        seen = {project_configuration(g).canonical()}
        frontier = list(seen)
        occupancy = 0
        for _ in range(12):
            nxt = []
            for conf in frontier:
                for _, succ in config_steps(conf):
                    key = succ.canonical()
                    occupancy = max(occupancy,
                                    max((len(c) for _, c in key.buffers), default=0))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
            frontier = nxt
        assert occupancy == expected[name], name


def test_send_enabledness_in_reachable_configurations():
    g = encode_global(G_TRAVEL, S)
    seen = {project_configuration(g).canonical()}
    frontier = list(seen)
    for _ in range(10):
        nxt = []
        for conf in frontier:
            for label, succ in config_steps(conf):
                if label.direction == "?":
                    assert conf.buffer(label.sender, label.receiver)[0] == label.msg
                key = succ.canonical()
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt


def test_negative_depth_is_rejected():
    for run in (lambda: check_trace_equivalence(GEnd(), -1),
                lambda: check_encoding_bisim(GEnd(), SR, -1),
                lambda: reachable_states(GEnd(), -1),
                lambda: global_traces(GEnd(), -1),
                lambda: config_traces(GEnd(), -1)):
        with pytest.raises(ValueError):
            run()


def test_reachable_states_budget():
    states = reachable_states(G_TRAVEL_ROUTED, 6)
    assert canonicalize(G_TRAVEL_ROUTED) in states
    assert len(states) > 5


def test_trace_sets_and_reachable_states_share_one_state_budget():
    # Both expand through `_explore`: at every cap, both finish or both
    # raise, counting the same states.
    outcomes = []
    for cap in range(1, 12):
        both = []
        for run in (global_traces, reachable_states):
            try:
                run(G_TRAVEL_ROUTED, 4, cap)
                both.append(None)
            except StateBudgetExceeded as exc:
                both.append(exc.states)
        assert both[0] == both[1], cap
        outcomes.append(both[0])
    assert outcomes[0] is not None and outcomes[-1] is None


def test_report_lines_machine_readable_format():
    passing = check_trace_equivalence(G_TRAVEL_ROUTED, 4)
    lines = passing.lines()
    assert lines[0] == "check=trace_equivalence"
    assert "verdict=pass" in lines
    assert any(line.startswith("states=") for line in lines)
    assert not any(line.startswith("counterexample=") for line in lines)

    with rules_disabled("Gr4"):
        failing = check_trace_equivalence(load("Battleships"), 8)
    assert "verdict=fail" in failing.lines()
    witness = [line for line in failing.lines() if line.startswith("counterexample=")]
    assert len(witness) == 1 and "!" in witness[0]


@pytest.mark.parametrize("name, run", [
    ("trace_equivalence_Gr4", lambda: check_trace_equivalence(load("Battleships"), 8)),
    ("deadlock_freedom_Gr7", lambda: check_deadlock_freedom(encode_global(G_TRAVEL, S), S)),
    ("encoding_bisim_Gr7", lambda: check_encoding_bisim(G_TRAVEL, S, 10)),
])
def test_mutation_reports_match_golden_files(name, run):
    # The criterion-10 failures pinned line by line: verdict, state count,
    # depth and the exact witness.
    golden = GOLDEN / f"mutation_{name}.txt"
    with rules_disabled(name.rsplit("_", 1)[1]):
        report = run()
    assert "\n".join(report.lines()) + "\n" == golden.read_text(), f"{golden} drifted"
