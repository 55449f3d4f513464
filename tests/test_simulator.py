import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from routedmpst.core import GComm, GEnd, LEnd, MsgLabel, Role, direct_send, participants
from routedmpst.efsm import STATE_TERMINAL, Efsm, EfsmState, EfsmTransition, build_efsm
from routedmpst.encoding import encode_global
from routedmpst.projection import project
from routedmpst.scribble import elaborate, parse_module
from routedmpst.simulator import (
    CANCEL, DATA, BoundedLoopPolicy, ConformanceViolation, Envelope, FixedScript, LogRecord,
    MaxStepsExceeded, SeededRandomPolicy, SessionLog, SimConfig, SimulatorError,
    Violation, run_session, validate_log,
)

from corpus import A, B, CORPUS_ROUTERS, G_TRAVEL, S, load

C, SP = Role("C"), Role("S")
GOLDEN = Path(__file__).resolve().parent / "golden"


def pingpong_scripts(rounds=100):
    return {SP: FixedScript(["PONG"] * (rounds - 1) + ["BYE"])}


def test_pingpong_hundred_rounds_delivers_two_hundred_envelopes():
    log = run_session(load("PingPong"), SP, pingpong_scripts(), SimConfig(seed=11))
    assert len(log.data_records) == 200
    assert log.cancellation is None
    labels = [r.envelope.msg.name for r in log.data_records]
    assert labels[:2] == ["PING", "PONG"] and labels[-2:] == ["PING", "BYE"]
    assert labels.count("PING") == 100 and labels.count("PONG") == 99


def test_identical_seeds_give_identical_logs():
    a = run_session(load("PingPong"), SP, pingpong_scripts(), SimConfig(seed=5))
    b = run_session(load("PingPong"), SP, pingpong_scripts(), SimConfig(seed=5))
    assert a.serialize() == b.serialize()
    assert a == b


def test_zero_interaction_protocol_gives_empty_log():
    log = run_session(GEnd(), Role("Anyone"), None, SimConfig(seed=1))
    assert log.records == ()
    assert validate_log(GEnd(), Role("Anyone"), log) is True


def test_router_transparency_on_travel_agency():
    encoded = encode_global(G_TRAVEL, S)
    for seed in range(4):
        direct = run_session(G_TRAVEL, S, None, SimConfig(seed=seed))
        routed = run_session(encoded, S, None, SimConfig(seed=seed))
        for role in (A, B, S):
            assert direct.observed(role) == routed.observed(role), (seed, role)


def test_seeded_random_scheduler_is_deterministic():
    cfg = SimConfig(seed=123, scheduler="seeded-random")
    encoded = encode_global(G_TRAVEL, S)
    runs = [run_session(encoded, S, None, cfg) for _ in range(2)]
    assert runs[0] == runs[1]


def test_cancellation_notifies_exactly_other_roles_and_halts_data():
    log = run_session(G_TRAVEL, S, None, SimConfig(seed=1, cancel_injection=(A, 3)))
    assert log.cancellation is not None
    assert log.cancellation.initiator == A
    assert log.cancellation.notified == frozenset({B, S})
    cancel_steps = [r.step for r in log.records if r.envelope.kind == CANCEL]
    assert cancel_steps, "expected cancel records in the log"
    first_cancel = min(cancel_steps)
    assert all(r.step < first_cancel
               for r in log.records if r.envelope.kind == DATA)
    # The router forwards the cancellation; the initiator is not notified.
    targets = [r.envelope.receiver for r in log.records if r.envelope.kind == CANCEL]
    assert A not in targets[1:]


def test_cancellation_by_router_notifies_clients():
    log = run_session(G_TRAVEL, S, None, SimConfig(seed=1, cancel_injection=(S, 2)))
    assert log.cancellation.initiator == S
    assert log.cancellation.notified == frozenset({A, B})


def test_every_corpus_log_validates():
    for name, router in (("TravelAgency", "S"), ("PingPong", "S"),
                         ("Game", "Svr"), ("Battleships", "Svr")):
        g = load(name)
        r = Role(router)
        for source in (g, encode_global(g, r)):
            log = run_session(source, r, None, SimConfig(seed=2))
            assert validate_log(source, r, log) is True, name


def test_empty_log_validates():
    empty = SessionLog((), None, ())
    assert validate_log(G_TRAVEL, S, empty) is True


def test_swapped_envelopes_are_rejected():
    log = run_session(load("PingPong"), SP, pingpong_scripts(4), SimConfig(seed=0))
    records = list(log.records)
    assert len(records) >= 4
    swapped = records[:]
    swapped[1], swapped[2] = (LogRecord(swapped[1].step, swapped[2].envelope),
                              LogRecord(swapped[2].step, swapped[1].envelope))
    broken = SessionLog(tuple(swapped), None, log.observations)
    verdict = validate_log(load("PingPong"), SP, broken)
    assert isinstance(verdict, Violation)
    assert verdict.index == 1


def test_foreign_label_rejected_with_index():
    log = run_session(load("PingPong"), SP, pingpong_scripts(4), SimConfig(seed=0))
    bogus = Envelope(C, SP, MsgLabel("PING", ("int",)), b"")
    records = log.records[:3] + (LogRecord(99, bogus),)
    verdict = validate_log(load("PingPong"), SP,
                           SessionLog(records, None, log.observations))
    assert isinstance(verdict, Violation) and verdict.index == 3


def test_max_steps_guard():
    with pytest.raises(MaxStepsExceeded):
        run_session(load("PingPong"), SP, {SP: FixedScript(["PONG"] * 100)},
                    SimConfig(seed=0, max_steps=11))


def test_random_policy_respects_seed():
    cfg = SimConfig(seed=42)
    scripts = {SP: SeededRandomPolicy(), C: SeededRandomPolicy()}
    a = run_session(load("PingPong"), SP, scripts, cfg)
    b = run_session(load("PingPong"), SP,
                    {SP: SeededRandomPolicy(), C: SeededRandomPolicy()}, cfg)
    assert a == b


def test_fixed_script_exhaustion_is_reported():
    with pytest.raises(ConformanceViolation):
        run_session(load("PingPong"), SP, {SP: FixedScript(["PONG"])},
                    SimConfig(seed=0))


def test_log_serialisation_format():
    log = run_session(load("PingPong"), SP, pingpong_scripts(2), SimConfig(seed=0))
    lines = log.serialize().splitlines()
    assert all(len(line.split(",")) == 5 for line in lines)
    step, sender, receiver, kind, label = lines[0].split(",")
    assert (sender, receiver, kind, label) == ("C", "S", "data", "PING")
    assert step.isdigit()


def test_pure_forwarder_router_outside_the_protocol():
    # The router need not take part in the protocol itself: it still has to
    # forward the routed traffic between the actual participants.
    g = GComm(A, B, ((MsgLabel("M", ("int",)), GEnd()),))
    router = Role("R")
    direct = run_session(g, router, None, SimConfig(seed=0))
    routed = run_session(encode_global(g, router), router, None, SimConfig(seed=0))
    assert len(direct.data_records) == len(routed.data_records) == 1
    assert direct.observed(A) == routed.observed(A)
    assert validate_log(encode_global(g, router), router, routed) is True


def test_external_log_round_trips_through_validation():
    from routedmpst.simulator import parse_session_log
    g = load("TravelAgency")
    log = run_session(g, Role("S"), None, SimConfig(seed=6))
    parsed = parse_session_log(log.serialize())
    # Parsed envelopes lose payload sorts; validation matches labels by name.
    assert validate_log(g, Role("S"), parsed) is True
    tampered = parse_session_log(
        log.serialize().replace("data,Query", "data,Reject", 1))
    assert isinstance(validate_log(g, Role("S"), tampered), Violation)


def test_routed_session_matches_golden_file():
    log = run_session(encode_global(G_TRAVEL, S), S)
    assert log.serialize() == (GOLDEN / "simulate_TravelAgency_routed.txt").read_text()


def test_cancel_by_a_role_outside_the_session_is_rejected():
    with pytest.raises(SimulatorError, match="Zed"):
        run_session(G_TRAVEL, S, None, SimConfig(cancel_injection=(Role("Zed"), 0)))


def test_long_chain_runs_and_validates_without_recursion():
    # 400 messages in sequence nest 400 levels deep.  Under the default
    # recursion limit that leaves room for the recursive projection and
    # encoding, but not for a further recursive walk of the simulator's own.
    pairs = [(A, S), (S, B), (B, A)]
    g = GEnd()
    for i in reversed(range(400)):
        sender, receiver = pairs[i % 3]
        g = GComm(sender, receiver, ((MsgLabel(f"m{i}"), g),))
    for source in (g, encode_global(g, S)):
        log = run_session(source, S)
        assert len(log.data_records) == 400
        assert validate_log(source, S, log) is True


def _reach(e):
    """The reference for `BoundedLoopPolicy.loops`: one depth-first search
    per state, for the states it reaches in one or more steps."""
    adj = {s.id: set() for s in e.states}
    for tr in e.transitions:
        adj[tr.source].add(tr.target)
    reach = {}
    for sid in adj:
        seen, stack = set(), [sid]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[sid] = seen
    return reach


def _looping(e):
    """The looping transitions of `e`, which the policy and the reference agree on."""
    policy, reach = BoundedLoopPolicy().bind(e), _reach(e)
    looping = {(tr.source, tr.target) for tr in e.transitions
               if policy.loops(tr.source, tr.target)}
    assert looping == {(tr.source, tr.target) for tr in e.transitions
                       if tr.source in reach[tr.target]}
    return looping


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_looping_branches_are_those_of_the_per_state_search_on_the_corpus(name):
    g = load(name)
    looping = [_looping(build_efsm(project(g, r), r)) for r in sorted(participants(g))]
    assert any(looping)


def test_looping_branches_are_those_of_the_per_state_search_on_long_480():
    pairs = [("A", "S"), ("S", "B"), ("B", "A")]
    body = "".join(f"  m{i}() from {pairs[i % 3][0]} to {pairs[i % 3][1]};\n"
                   for i in range(480))
    text = f"global protocol Long(role A, role S, role B) {{\n{body}}}\n"
    # The frontend, projection and validation recurse once per message.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        g = elaborate(parse_module(text, "long.scr"), "Long")
        machines = [build_efsm(project(g, r), r) for r in sorted(participants(g))]
    finally:
        sys.setrecursionlimit(limit)
    for e in machines:
        assert len(e.states) == 321 and _looping(e) == set()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3 * n))))
def test_looping_branches_are_those_of_the_per_state_search_on_random_machines(graph):
    n, edges = graph
    states = tuple(EfsmState(i, STATE_TERMINAL, LEnd()) for i in range(1, n + 1))
    transitions = tuple(EfsmTransition(p, q, direct_send(A, B, MsgLabel(f"m{i}")))
                        for i, (p, q) in enumerate(edges))
    _looping(Efsm(A, states, transitions))
