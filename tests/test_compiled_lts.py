"""The compiled LTSs against the plain step functions: the global step
table against `global_steps`, the configuration LTS (per-role step tables
over id tuples) against `config_steps`, and the step maps they are built
from."""

import pytest

from routedmpst.analysis import (
    check_trace_equivalence, config_traces, global_traces, reachable_states,
)
from routedmpst.core import (
    GComm, GEnd, GRec, GVar, InvalidType, LEnd, LRec, LSelect, LVar, Role, canonicalize,
    direct_send,
)
from routedmpst.encoding import encode_global
from routedmpst.semantics import (
    CompiledConfigurations, Configuration, StepTable, config_steps, dict_of_steps,
    global_steps, local_steps, project_configuration,
)
from routedmpst.simulator import SessionLog, validate_log

from corpus import A, B, CORPUS_ROUTERS, M1, S, load
from mutation import GLOBAL_RULES, rules_disabled
from strategies import ROLE_POOL


def _check_global_table(g, limit=None):
    """Breadth-first over the global step table from `g`, through at most
    `limit` states: each id stands for a distinct canonical state whose
    `global_steps`, canonicalised, are exactly its edges, in the same order."""
    table = StepTable()
    start = table.intern(g)
    assert canonicalize(table.states[start]) == canonicalize(g)
    seen = {start}
    frontier = [start]
    expanded = 0
    while frontier and expanded != limit:
        sid = frontier.pop(0)
        expanded += 1
        want = [(label, canonicalize(succ))
                for label, succ in global_steps(table.states[sid])]
        got = list(table.edges(sid).items())
        assert [(label, canonicalize(table.states[succ])) for label, succ in got] == want
        for _, succ in got:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len({canonicalize(t) for t in table.states.values()}) == len(table.states)
    return len(seen)


def _corpus_type(name, encoded):
    g = load(name)
    return encode_global(g, Role(CORPUS_ROUTERS[name])) if encoded else g


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_global_step_table_matches_global_steps(name, encoded):
    assert _check_global_table(_corpus_type(name, encoded)) > 1


# The Battleships LTS has 165 states, plain and encoded, and `global_steps`
# costs ~10 ms on each; its runs with a rule disabled stop after 20 states.
@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_global_step_table_with_each_rule_disabled(name, encoded):
    g = _corpus_type(name, encoded)
    for rule in GLOBAL_RULES:
        with rules_disabled(rule):
            _check_global_table(g, 20 if name == "Battleships" else None)


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_compiled_configurations_match_config_steps(name):
    """Breadth-first over the encoded configuration LTS: each compiled key
    stands for a canonical configuration whose `config_steps`, canonicalised,
    are exactly the compiled steps."""
    router = Role(CORPUS_ROUTERS[name])
    lts = CompiledConfigurations(project_configuration(encode_global(load(name), router)))
    seen = {lts.initial}
    frontier = [lts.initial]
    while frontier:
        key = frontier.pop(0)
        want = [(label, succ.canonical()) for label, succ in config_steps(lts.configuration(key))]
        got = sorted(lts.steps(key), key=lambda step: step[0].sort_key())
        assert [(label, lts.configuration(succ)) for label, succ in got] == want
        for _, succ in got:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len(seen) > 1
    assert lts.configuration(lts.initial) == \
        project_configuration(encode_global(load(name), router)).canonical()


def test_conflicting_duplicate_label_raises():
    a, b = ROLE_POOL[:2]
    label = direct_send(a, b, M1)
    assert dict_of_steps([(label, LEnd()), (label, LEnd())]) == {label: LEnd()}
    with pytest.raises(InvalidType):
        dict_of_steps([(label, LEnd()), (label, LVar("t"))])


# Malformed types a step table must not explore, global and local: duplicate
# labels, an empty branch set, a non-contractive binder.
MALFORMED = {
    "duplicate-labels": (GComm(A, B, ((M1, GEnd()), (M1, GEnd()))),
                         LSelect(B, ((M1, LEnd()), (M1, LEnd())))),
    "empty-branches": (GComm(A, B, ()), LSelect(B, ())),
    "non-contractive": (GRec("x", GRec("y", GVar("x"))), LRec("x", LRec("y", LVar("x")))),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_types_are_rejected_at_every_entry_point(name):
    """Each type a step table or a step function takes from outside is
    validated; the successors its edges derive from valid states are not
    checked again."""
    g, t = MALFORMED[name]
    entry_points = [
        lambda: global_steps(g),
        lambda: local_steps(t, A),
        lambda: config_steps(Configuration.make({A: t, B: LEnd()})),
        lambda: global_traces(g, 4),
        lambda: reachable_states(g, 4),
        lambda: CompiledConfigurations(Configuration.make({A: t, B: LEnd()})),
        # These project `g`; `project_configuration` validates it first.
        lambda: project_configuration(g),
        lambda: check_trace_equivalence(g, 4),
        lambda: config_traces(g, 4),
        lambda: validate_log(g, S, SessionLog((), None, ())),
    ]
    for call in entry_points:
        with pytest.raises(InvalidType):
            call()
