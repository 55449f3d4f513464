import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from routedmpst import analysis, simulator
from routedmpst.core import GComm, GEnd, MsgLabel, Role, direct_send, participants
from routedmpst.efsm import STATE_TERMINAL, Efsm, EfsmState, EfsmTransition, build_efsm
from routedmpst.encoding import AlreadyRouted, NotCanonical, encode_global
from routedmpst.projection import project
from routedmpst.scribble import elaborate, parse_module
from routedmpst.semantics import Tables
from routedmpst.simulator import (
    CANCEL, DATA, BoundedLoopPolicy, ConformanceViolation, Envelope, LogRecord,
    MaxStepsExceeded, SessionLog, SimConfig, SimulatorError, Violation, parse_session_log,
    run_session, validate_log,
)
from routedmpst.wellformed import check_wf_routed

from corpus import A, B, CORPUS_ROUTERS, G_TRAVEL, S, load
from policies import FixedScript, SeededRandomPolicy

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
            assert dict(direct.observations)[role] == dict(routed.observations)[role], (seed, role)


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


def test_the_empty_protocol_has_no_one_to_cancel():
    # Its one role, the router, has no machine that can act, so the
    # injection never fires and the session is the empty log.
    log = run_session(GEnd(), S, None, SimConfig(cancel_injection=(S, 0)))
    assert log == SessionLog((), None, ())
    assert validate_log(GEnd(), S, log) is True


def test_cancellation_by_router_notifies_clients():
    log = run_session(G_TRAVEL, S, None, SimConfig(seed=1, cancel_injection=(S, 2)))
    assert log.cancellation.initiator == S
    assert log.cancellation.notified == frozenset({A, B})


def _corpus_routers():
    """Every (protocol, participant) of the corpus whose encoding through
    that participant exists and is wf^router."""
    for name in sorted(CORPUS_ROUTERS):
        g = load(name)
        for router in sorted(participants(g)):
            try:
                encoded = encode_global(g, router)
            except (NotCanonical, AlreadyRouted):
                continue
            if check_wf_routed(encoded, router).ok:
                yield name, g, router, encoded


def test_every_corpus_log_validates():
    # A session walks the configuration rule that validation searches, over
    # the same type: the protocol in canonical mode, its encoding in routed
    # mode.  So its log validates, through every router; the router's
    # forwarding is the one difference between the modes, and no role
    # observes it.
    for name, g, router, encoded in _corpus_routers():
        for scheduler in ("round-robin", "seeded-random"):
            for seed in range(4):
                for rounds in (1, 2, 4):
                    case = (name, router, scheduler, seed, rounds)
                    cfg = SimConfig(seed=seed, scheduler=scheduler)
                    direct, routed = (
                        run_session(source, router,
                                    {r: BoundedLoopPolicy(rounds) for r in participants(g)}, cfg)
                        for source in (g, encoded))
                    assert validate_log(encoded, router, routed) is True, case
                    assert validate_log(g, router, direct) is True, case
                    assert direct.observations == routed.observations, case


def test_every_cancelled_corpus_log_validates():
    # A cancellation can cut messages off in flight: sent, never delivered.
    # Game's P1 cancels at step 6 after the server has sent it an Update that
    # it never reads, and the server has gone on to read P2's move.  Such a
    # send fills no buffer the rest of the log reads, so the log still
    # validates, in both modes and through every router.
    # The seed runs apart from the step: seed 1 with C@7 is PingPong's cancel
    # after its last delivery (`simulate_PingPong_cancel_C7_seeded_random_1`).
    # One `Tables` per session type keeps the sweep to a few seconds.
    cases = 0
    for name, g, router, encoded in _corpus_routers():
        tables = [(source, Tables()) for source in (g, encoded)]
        for injector in sorted(participants(g) | {router}):
            for at in range(10):
                for scheduler, seed in (("round-robin", 0), *(
                        ("seeded-random", seed) for seed in range(3))):
                    cfg = SimConfig(seed=seed, scheduler=scheduler,
                                    cancel_injection=(injector, at))
                    for source, shared in tables:
                        log = run_session(source, router, None, cfg, tables=shared)
                        case = (name, router, injector, at, scheduler, seed, source is g)
                        assert validate_log(source, router, log, tables=shared) is True, case
                        cases += log.cancellation is not None
    assert cases
    log = run_session(load("Game"), Role("Svr"), None, SimConfig(
        seed=6, scheduler="seeded-random", cancel_injection=(Role("P1"), 6)))
    assert [r.line() for r in log.records] == [
        "1,P1,Svr,data,Pos", "3,Svr,P2,data,Update", "6,P2,Svr,data,Pos",
        "10,Svr,P2,data,Update", "11,P1,Svr,cancel,cancelled by P1",
        "12,Svr,P2,cancel,cancelled by P1"]
    assert validate_log(load("Game"), Role("Svr"), log) is True


def test_records_after_the_data_must_be_the_cancellation_the_session_sends():
    # TravelAgency through S: A's cancel goes to S, which notifies B.
    def check(*lines):
        return validate_log(G_TRAVEL, S, parse_session_log("".join(f"{x}\n" for x in lines)))
    data = "1,B,A,data,Suggest"
    assert check(data, "9,A,S,cancel,stop", "10,S,B,cancel,stop") is True
    assert check(data, "9,S,A,cancel,stop", "10,S,B,cancel,stop") is True
    assert check(data, "9,B,S,cancel,stop", "10,S,A,cancel,stop") is True
    for lines, index, detail in [
        ((data, "9,A,B,cancel,nonsense", "10,S,A,data,Bogus", "11,Q,Z,data,Nope"), 1,
         "cancel A->B not realisable here"),
        (("0,Q,Z,cancel,x", "1,Q,Z,data,Nope"), 0, "cancel Q->Z not realisable here"),
        ((data, "9,A,S,cancel,stop"), 2, "the log ends where the session sends cancel S->B"),
        ((data, "9,A,S,cancel,stop", "10,S,B,cancel,stop", "11,S,B,cancel,stop"), 3,
         "cancel S->B not realisable here"),
        ((data, "9,S,B,cancel,stop", "10,S,A,cancel,stop"), 1,
         "cancel S->B not realisable here"),
        ((data, "9,A,S,cancel,stop", "10,S,B,data,Suggest"), 2,
         "delivery S->B Suggest not realisable here"),
    ]:
        assert check(*lines) == Violation(index, detail), lines


def test_a_cancel_after_the_canceller_has_finished_is_a_violation():
    # A role cancels only while its machine can still act, and the router
    # sends no notice before a cancellation.  So cancel records appended to
    # a complete log, where every role has finished, are violations at the
    # first of them; a client that still has a message to read may cancel,
    # and the router then takes its cancel after the last delivery.
    def late(name, router, *lines):
        g, router = load(name), Role(router)
        log = run_session(g, router, None, SimConfig())
        text = log.serialize() + "".join(f"99,{x},stop\n" for x in lines)
        return len(log.records), validate_log(g, router, parse_session_log(text))

    assert late("TravelAgency", "S", "A,S,cancel", "S,B,cancel") == (10, Violation(
        10, "cancel A->S not realisable here"))
    assert late("PingPong", "S", "S,C,cancel") == (4, Violation(
        4, "cancel S->C not realisable here"))
    assert late("Game", "Svr", "Svr,P1,cancel", "Svr,P2,cancel") == (9, Violation(
        9, "cancel Svr->P1 not realisable here"))
    assert late("PingPong", "S", "C,S,cancel") == (4, True)


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
    bogus = Envelope(C, SP, MsgLabel("PING", ("int",)))
    records = log.records[:3] + (LogRecord(99, bogus),)
    verdict = validate_log(load("PingPong"), SP,
                           SessionLog(records, None, log.observations))
    assert isinstance(verdict, Violation) and verdict.index == 3


def test_max_steps_guard():
    with pytest.raises(MaxStepsExceeded):
        run_session(load("PingPong"), SP, {SP: FixedScript(["PONG"] * 100)},
                    SimConfig(seed=0, max_steps=11))


def test_a_session_that_never_ends_stops_at_max_steps_in_bounded_memory():
    # OuterLoop has no choice, so the round bound never applies: C sends m4
    # each round and the C->B buffer grows by one message a round.  The walk
    # keeps no configuration behind it, so its memory is linear in the steps.
    g, router = load("OuterLoop", "P"), Role("D")
    scripts = {r: BoundedLoopPolicy(1) for r in participants(g)}
    tracemalloc.start()
    try:
        with pytest.raises(MaxStepsExceeded):
            run_session(g, router, scripts, SimConfig(max_steps=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


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
    assert dict(direct.observations)[A] == dict(routed.observations)[A]
    assert validate_log(encode_global(g, router), router, routed) is True


def test_the_router_forwards_only_what_its_own_projection_offers():
    # S's projection receives m1 before it routes m2, so B's routed send
    # waits for S, and m2 cannot overtake m1.
    g = GComm(A, S, ((MsgLabel("m1"), GComm(B, A, ((MsgLabel("m2"), GEnd()),))),))
    encoded = encode_global(g, S)
    log = run_session(encoded, S)
    assert [r.envelope.msg.name for r in log.data_records] == ["m1", "m2"]
    assert validate_log(encoded, S, log) is True


def test_external_log_round_trips_through_validation():
    g = load("TravelAgency")
    log = run_session(g, Role("S"), None, SimConfig(seed=6))
    parsed = parse_session_log(log.serialize())
    # Parsed envelopes lose payload sorts; validation matches labels by name.
    assert validate_log(g, Role("S"), parsed) is True
    tampered = parse_session_log(
        log.serialize().replace("data,Query", "data,Reject", 1))
    assert isinstance(validate_log(g, Role("S"), tampered), Violation)


@pytest.mark.parametrize("line, detail", [
    ("0,A,A,data,m", "A sends to itself"),
    ("0,A,B,data", "not enough values to unpack"),
    ("0,A,B,data,m,n", "too many values to unpack"),
    ("0,A,B,ping,m", "kind 'ping' is neither data nor cancel"),
    ("x,A,B,data,m", "invalid literal for int() with base 10: 'x'"),
    ("0,A!,B,data,m", "invalid role name: 'A!'"),
    ("0,A,B,data,m-1", "invalid message label: 'm-1'"),
])
def test_malformed_log_lines_are_rejected_by_line(line, detail):
    # A comment, a data line and a cancellation with a free-text reason
    # parse; the malformed line is the fourth.
    text = f"# log\n0,A,S,data,m\n1,S,B,cancel,cancelled by A\n{line}\n"
    with pytest.raises(SimulatorError, match=r"^line 4: ") as raised:
        parse_session_log(text)
    assert detail in str(raised.value)


def test_long_game_log_validates_in_memory_flat_in_its_length():
    # 1,333 rounds deliver 7,995 envelopes.  The check keeps one layer of
    # configurations, not a pair per configuration and envelope.
    g, router = load("Game"), Role("Svr")
    log = run_session(g, router, {r: BoundedLoopPolicy(1333) for r in participants(g)})
    assert len(log.data_records) == 7995
    tracemalloc.start()
    try:
        assert validate_log(g, router, log) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    states = tuple(EfsmState(i, STATE_TERMINAL) for i in range(1, n + 1))
    transitions = tuple(EfsmTransition(p, q, direct_send(A, B, MsgLabel(f"m{i}")))
                        for i, (p, q) in enumerate(edges))
    _looping(Efsm(A, states, transitions))


def test_log_validation_and_the_loop_test_search_through_explore():
    """Neither `validate_log` nor `BoundedLoopPolicy.loops` has a search
    loop of its own: both run `analysis._explore`, the loop test once per
    branch target (PONG back to the loop, BYE out of it) and the log check
    once per data envelope."""
    g = load("PingPong")
    with mock.patch.object(simulator, "_explore", wraps=analysis._explore) as explore:
        log = run_session(g, SP, None, SimConfig(seed=0))
        assert [call.args[:2] for call in explore.call_args_list] == [
            ("loops", (1,)), ("loops", (3,))]
        assert validate_log(g, SP, log) is True
    assert [call.args[0] for call in explore.call_args_list] == \
        ["loops", "loops"] + ["validate_log"] * len(log.data_records)
