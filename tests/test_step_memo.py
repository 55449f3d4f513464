"""The step memo and the early stop of the commuting rules: within one
checker call each rule derives the steps of a (canonical id, role, cut
stack) once, the edges of a state are its memo entry, and `_commute_all`
steps no branch after the first one that leaves no candidate label."""

import pytest

from routedmpst import semantics
from routedmpst.cli import main
from routedmpst.analysis import check_deadlock_freedom, check_trace_equivalence
from routedmpst.core import LEnd, LSelect, LRoutedSelect, Role, direct_send
from routedmpst.encoding import encode_global
from routedmpst.semantics import Tables, project_configuration

from corpus import A, B, C, CORPUS_ROUTERS, M1, M2, PROTOCOL_DIR, load
from mutation import rules_counted


CHECKS = {
    "deadlock_freedom": lambda g, router: check_deadlock_freedom(g, router),
    "trace_equivalence": lambda g, router: check_trace_equivalence(g, 8),
}


@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_each_step_is_derived_once_per_checker_call(name, check):
    router = Role(CORPUS_ROUTERS[name])
    g = encode_global(load(name), router)
    with rules_counted() as calls:
        assert CHECKS[check](g, router).passed
    assert calls
    assert sorted(key[0] for key, (_, n) in calls.items() if n > 1) == []


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_edges_are_the_memo_entry_of_the_state(name):
    # The global edges of every state reachable from the encoding, and the
    # local edges of each role's initial state: no second map is built.
    router = Role(CORPUS_ROUTERS[name])
    g = encode_global(load(name), router)
    tables = Tables()
    seen, frontier = set(), [tables.intern(g)]
    while frontier:
        sid = frontier.pop()
        if sid not in seen:
            seen.add(sid)
            edges = tables.edges(sid)
            assert edges is tables.derived[(sid, None, frozenset())]
            frontier.extend(edges.values())
    for role, t in project_configuration(g, tables=tables).locals:
        sid = tables.intern(t)
        assert tables.edges(sid, role) is tables.derived[(sid, role, frozenset())]


@pytest.fixture
def stepped(monkeypatch):
    """The key node of every call to `semantics._steps`, in call order."""
    nodes: list = []
    real = semantics._steps

    def record(sid, me, ids, *args):
        nodes.append(ids.keys[sid])
        return real(sid, me, ids, *args)

    monkeypatch.setattr(semantics, "_steps", record)
    return nodes


def test_commuting_rule_stops_at_the_first_empty_branch(stepped):
    # Lr10 at A's selection: branch M1 (end) offers no routing action, so
    # branch M2 is never stepped.
    late = LRoutedSelect(B, C, ((M1, LEnd()),))
    t = LSelect(B, ((M1, LEnd()), (M2, late)))
    tables = Tables()
    assert list(tables.edges(tables.intern(t), A)) == [direct_send(A, B, M1),
                                                      direct_send(A, B, M2)]
    key, late_key = (tables.keys[tables.of(u)] for u in (t, late))
    assert any(node is key for node in stepped)
    assert not any(node is late_key for node in stepped)


def test_initial_local_edges_of_the_battleships_encoding_step_few_nodes(stepped):
    """The first edges of each role's local LTS: stepping every branch of
    every commuting rule would call `_steps` 20 (P1), 22 (P2) and 40 (Svr)
    times."""
    c = project_configuration(encode_global(load("Battleships"), Role("Svr")))
    calls = {}
    for role, t in c.locals:
        before = len(stepped)
        tables = Tables()
        tables.edges(tables.intern(t), role)
        calls[role.name] = len(stepped) - before
    assert calls == {"P1": 6, "P2": 6, "Svr": 10}


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_verify_derives_each_canonical_id_once_across_its_checks(name, monkeypatch, capsys):
    # Every rule records the interner, the canonical id of its node, the
    # role and the cut stack it derives; `_steps` calls the rules only when
    # its memo misses.
    derived = []
    for rule_name, rule in dict(semantics.RULES).items():
        def count(node, me, ids, stack, rule_name=rule_name, rule=rule):
            derived.append((id(ids), rule_name, ids.key_id(node), me, stack))
            return rule(node, me, ids, stack)
        monkeypatch.setitem(semantics.RULES, rule_name, count)
    path = str(PROTOCOL_DIR / f"{name}.scr")
    assert main(["verify", path, name, "--router", CORPUS_ROUTERS[name]]) == 0
    capsys.readouterr()
    assert len({interner for interner, *_ in derived}) == 1
    assert len(set(derived)) == len(derived) > 0
