import json
import re
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from routedmpst.core import (
    CanonicalIds, LBranch, LEnd, LRec, LSelect, LVar, MsgLabel, Role, canonicalize,
    participants,
)
from routedmpst.efsm import (
    STATE_RECEIVE, STATE_SEND, STATE_TERMINAL, build_efsm, efsm_ir, render_dot,
)
from routedmpst.encoding import encode_global
from routedmpst.projection import project
from routedmpst.semantics import Tables, local_steps

import efsm_oracle
from canonical_oracle import unfold_once
from corpus import A, B, CORPUS_ROUTERS, G_TRAVEL, S, load
from strategies import ROLE_POOL, binder_nests, local_types, with_unused_binders

GOLDEN = Path(__file__).resolve().parent / "golden"

TRAVEL_A_MACHINE = {
    (1, "B?Suggest", 2),
    (2, "S!Query", 3),
    (3, "S?Full", 4),
    (4, "B!Full", 1),
    (3, "S?Available", 5),
    (5, "B!Quote", 6),
    (6, "B?Ok", 7),
    (6, "B?No", 8),
    (7, "S!Confirm", 9),
    (8, "S!Reject", 9),
}


def travel_machine(role=A, source=None):
    g = source if source is not None else load("TravelAgency")
    return build_efsm(project(g, role), role)


def test_travel_agency_role_a_matches_reference_machine():
    e = travel_machine()
    assert len(e.states) == 9
    assert len(e.transitions) == 10
    got = {(t.source, t.display(A), t.target) for t in e.transitions}
    assert got == TRAVEL_A_MACHINE
    assert e.initial == 1
    assert [s.id for s in e.states if s.kind == STATE_TERMINAL] == [9]


def test_states_partition_into_send_receive_terminal():
    e = travel_machine()
    kinds = {s.id: s.kind for s in e.states}
    assert kinds[1] == STATE_RECEIVE and kinds[2] == STATE_SEND
    assert kinds[9] == STATE_TERMINAL
    for tr in e.transitions:
        if kinds[tr.source] == STATE_SEND:
            assert tr.action.direction == "!"
        else:
            assert tr.action.direction == "?"


def test_end_machine():
    e = build_efsm(LEnd(), A)
    assert len(e.states) == 1
    assert e.states[0].kind == STATE_TERMINAL
    assert e.transitions == ()


def test_pingpong_client_machine():
    C = Role("C")
    e = build_efsm(project(load("PingPong"), C), C)
    assert len(e.states) == 3
    got = {(t.source, t.display(C), t.target) for t in e.transitions}
    assert got == {(1, "S!PING", 2), (2, "S?PONG", 1), (2, "S?BYE", 3)}


def test_routed_transitions_carry_via():
    g = encode_global(G_TRAVEL, S)
    e = build_efsm(project(g, A), A)
    assert len(e.states) == 9
    vias = {t.display(A) for t in e.transitions if t.action.via is not None}
    assert "B?Suggest (via S)" in vias
    assert "B!Quote (via S)" in vias
    assert {t.display(A) for t in e.transitions if t.action.via is None} == \
        {"S!Query", "S?Full", "S?Available", "S!Confirm", "S!Reject"}


def test_router_machine_includes_forwarding_states():
    g = encode_global(G_TRAVEL, S)
    e = build_efsm(project(g, S), S)
    routed = [t for t in e.transitions if t.action.via == S]
    assert routed, "router machine should expose forwarding transitions"
    # Forwarding accept and delivery alternate through in-transit states.
    for tr in routed:
        assert tr.action.sender != S and tr.action.receiver != S


def test_machine_agrees_with_local_lts_on_every_state():
    # Every EFSM edge is a local LTS edge.  The converse fails where a router
    # may act before a prefix (Lr8, Lr10/Lr11), as in six states of the
    # encoded TravelAgency router: the machine leaves those edges out.  The
    # machine keeps no types: each state's is the oracle's.
    for name, router in sorted(CORPUS_ROUTERS.items()):
        plain = load(name)
        for g in (plain, encode_global(plain, Role(router))):
            for role in sorted(participants(g)):
                t = project(g, role)
                e, types = build_efsm(t, role), efsm_oracle.build(t, role)[1]
                for st in e.states:
                    machine_steps = {(tr.action, canonicalize(types[tr.target - 1]))
                                     for tr in e.outgoing(st.id)}
                    lts = {(label, canonicalize(_unfold(succ)))
                           for label, succ in local_steps(types[st.id - 1], role)}
                    assert machine_steps <= lts, (name, g is plain, role, st.id)
                    if g is plain and name == "TravelAgency":
                        assert machine_steps == lts, (role, st.id)


def _assert_matches_oracle(t, role):
    """States (id and kind), transitions, IR, DOT and each state's outgoing
    transitions equal those of the canonicalise-per-state build."""
    got, want = build_efsm(t, role), efsm_oracle.build_efsm(t, role)
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert efsm_ir(got) == efsm_ir(want)
    assert render_dot(got) == render_dot(want)
    for st in got.states:
        assert got.outgoing(st.id) == tuple(tr for tr in want.transitions
                                             if tr.source == st.id)


def test_machines_match_the_oracle_on_the_corpus_and_its_encodings():
    for name in sorted(CORPUS_ROUTERS):
        plain = load(name)
        roles = sorted(participants(plain))
        for g in [plain] + [encode_global(plain, router) for router in roles]:
            for role in sorted(participants(g)):
                _assert_matches_oracle(project(g, role), role)


def _has_recursion(t):
    return isinstance(t, LRec) or any(_has_recursion(c)
                                      for _, c in getattr(t, "branches", None) or ())


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(ROLE_POOL).flatmap(lambda role: st.tuples(
    st.just(role), local_types(role, depth=4, roles=ROLE_POOL)
    .filter(_has_recursion).flatmap(with_unused_binders))))
def test_machines_match_the_oracle_on_recursive_local_types(drawn):
    role, t = drawn
    _assert_matches_oracle(t, role)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(binder_nests(local=True), st.sampled_from(ROLE_POOL[1:]))
def test_machines_match_the_oracle_on_nested_binders(t, role):
    # Bodies that name an outer binder past inner ones: a back edge resumes
    # at the body of the binder its variable names, not the nearest one.
    _assert_matches_oracle(t, role)


def test_machines_match_the_oracle_under_shadowing_binders():
    # An inner binder reuses the outer one's name: its variable names it,
    # and after the inner loop the outer name is in scope again.
    m = [MsgLabel(f"m{i}") for i in range(4)]
    inner = LRec("x", LBranch(B, ((m[1], LVar("x")), (m[2], LEnd()))))
    for t in (LRec("x", LSelect(B, ((m[0], inner), (m[3], LVar("x"))))),
              LRec("x", LSelect(B, ((m[0], LRec("x", LSelect(B, ((m[1], LVar("x")),)))),
                                    (m[3], LVar("x")))))):
        _assert_matches_oracle(t, A)


def _unfold(t):
    while isinstance(t, LRec):
        t = unfold_once(t)
    return t


def test_back_edges_share_their_binders_unfolding(substitutions):
    """k back edges to one binder reach its one unfolding: `unfold_id`
    substitutes into the binder's id once, not once more per back edge, and
    no type is built for it.  No machine of the corpus or its encodings
    unfolds a binder id twice."""
    substituted, forms = substitutions
    labels = [MsgLabel(f"m{i}") for i in range(6)]
    t = LRec("t", LBranch(B, tuple((m, LSelect(B, ((m, LVar("t")),))) for m in labels)))
    tables = Tables()
    e = build_efsm(t, A, tables=tables)
    assert len(e.states) == 1 + len(labels)
    assert substituted == [(tables, tables.of(t))]
    for name, router in sorted(CORPUS_ROUTERS.items()):
        plain = load(name)
        for g in (plain, encode_global(plain, Role(router))):
            for role in sorted(participants(g)):
                del substituted[:]
                build_efsm(project(g, role), role)
                assert len(set(substituted)) == len(substituted), (name, role)
    assert forms == []


def test_a_given_interner_is_the_only_one_and_its_walk_is_reused(monkeypatch, substitutions):
    """Given `tables`, the machine makes no interner of its own.  Built again
    from the same type object, it walks nothing and unfolds nothing: the
    root's ids and each binder's unfolding are looked up."""
    made, walked = [], []
    real_init, real_walk = CanonicalIds.__init__, CanonicalIds._walk

    def init(self):
        made.append(self)
        real_init(self)

    def walk(self, t):
        walked.append(t)
        return real_walk(self, t)
    monkeypatch.setattr(CanonicalIds, "__init__", init)
    monkeypatch.setattr(CanonicalIds, "_walk", walk)
    g = load("TravelAgency")
    t = project(encode_global(g, S), S)
    tables = Tables()
    first = build_efsm(t, S, tables=tables)
    assert made == [tables] and walked and walked[0] is t
    del walked[:], substitutions[0][:]
    assert build_efsm(t, S, tables=tables) == first
    assert made == [tables] and walked == [] and substitutions[0] == []
    build_efsm(t, S)
    assert len(made) == 2


def test_router_machine_of_the_encoding_matches_its_golden_file():
    """The router's machine of TravelAgency's encoding through S: forwarding
    accepts (Lr6) into in-transit states, each left by its delivery (Lr7),
    and a back edge to the initial state."""
    e = build_efsm(project(encode_global(load("TravelAgency"), S), S), S)
    assert render_dot(e) + efsm_ir(e) == (GOLDEN / "efsm_TravelAgency_encoded_S.txt").read_text()
    forwards = [tr for tr in e.transitions if tr.action.via == S]
    accepts = {tr.target: tr.action for tr in forwards if tr.action.direction == "!"}
    deliveries = [tr for tr in forwards if tr.action.direction == "?"]
    assert accepts and len(deliveries) == len(accepts)
    for tr in deliveries:
        assert e.outgoing(tr.source) == (tr,)
        assert accepts[tr.source].msg == tr.action.msg
    assert any(tr.target == e.initial for tr in deliveries)


def test_state_count_equals_distinct_canonical_subterms():
    types = efsm_oracle.build(project(load("TravelAgency"), A), A)[1]
    assert len({canonicalize(t) for t in types}) == len(types) == len(travel_machine().states)


DOT_EDGE = re.compile(r'^\s*(\w+) -> (\w+)(?: \[label="([^"]*)"\])?;$')
DOT_NODE = re.compile(r'^\s*(\w+) \[shape=(\w+)(?:, label="")?\];$')


def parse_dot(text: str):
    """Tiny DOT reader covering the shapes render_dot emits."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        if line.strip() in ("rankdir=LR;",):
            continue
        node = DOT_NODE.match(line)
        if node:
            nodes[node.group(1)] = node.group(2)
            continue
        edge = DOT_EDGE.match(line)
        if edge:
            edges.append((edge.group(1), edge.group(2), edge.group(3)))
            continue
        raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, edges


def test_dot_round_trips_through_grammar_checker():
    e = travel_machine()
    nodes, edges = parse_dot(render_dot(e))
    assert set(nodes) == {"__start"} | {str(i) for i in range(1, 10)}
    assert nodes["9"] == "doublecircle"
    labelled = {(int(s), lbl, int(t)) for s, t, lbl in edges if s != "__start"}
    assert labelled == TRAVEL_A_MACHINE
    assert ("__start", "1", None) in edges


def test_dot_end_machine_single_doublecircle():
    nodes, edges = parse_dot(render_dot(build_efsm(LEnd(), A)))
    assert nodes == {"__start": "point", "1": "doublecircle"}
    assert edges == [("__start", "1", None)]


def test_ir_is_stable_json():
    e = travel_machine()
    first = efsm_ir(e)
    second = efsm_ir(travel_machine())
    assert first == second
    payload = json.loads(first)
    assert payload["role"] == "A"
    assert payload["initial"] == 1
    assert len(payload["states"]) == 9
    assert len(payload["transitions"]) == 10
    suggest = payload["transitions"][0]
    assert suggest == {"from": 1, "to": 2, "peer": "B", "dir": "?",
                       "label": "Suggest", "payloads": ["string"]}


def test_router_machine_ir_names_both_endpoints():
    g = encode_global(G_TRAVEL, S)
    machine = build_efsm(project(g, S), S)
    payload = json.loads(efsm_ir(machine))
    forwarding = [t for t in payload["transitions"] if "from_role" in t]
    assert forwarding, "router forwarding transitions must carry the sender"
    first = forwarding[0]
    assert first["via"] == "S"
    assert {first["from_role"], first["peer"]} <= {"A", "B"}


def test_ir_is_byte_equal_to_the_indented_json_of_its_payload():
    # `efsm_ir` writes its text directly; the oracle builds the payload as a
    # dict and serialises it with json.dumps(indent=2, sort_keys=True).
    machines = []
    for name, router in sorted(CORPUS_ROUTERS.items()):
        plain = load(name)
        for g in (plain, encode_global(plain, Role(router))):
            machines += [build_efsm(project(g, role), role) for role in sorted(participants(g))]
    machines.append(build_efsm(LEnd(), A))
    # Zero, one and two payload sorts, one with characters JSON escapes.
    labels = (MsgLabel("none"), MsgLabel("one", ("int",)),
              MsgLabel("two", ("int", 'Map<"k", é>')))
    for node in (LSelect, LBranch):
        machines.append(build_efsm(node(B, tuple((lbl, LEnd()) for lbl in labels)), A))
    texts = [efsm_ir(m) for m in machines]
    assert texts == [efsm_oracle.efsm_ir(m) for m in machines]
    assert any('"from_role"' in t and '"via"' in t for t in texts)
    assert '"transitions": []' in texts[-3]
    assert '"Map<\\"k\\", \\u00e9>"' in texts[-1]
