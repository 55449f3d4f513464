"""The compiled LTSs against the plain step functions: the global step
table against `global_steps`, the configuration LTS (per-role step tables
over id tuples) against `config_steps`, and the step maps they are built
from."""

import pytest

from routedmpst.core import InvalidType, LEnd, LVar, Role, canonicalize, direct_send
from routedmpst.encoding import encode_global
from routedmpst.semantics import (
    CompiledConfigurations, StepTable, config_steps, dict_of_steps,
    global_steps, project_configuration,
)

from corpus import CORPUS_ROUTERS, M1, load
from mutation import GLOBAL_RULES, rules_disabled
from strategies import ROLE_POOL


def _check_global_table(g, limit=None):
    """Breadth-first over the global step table from `g`, through at most
    `limit` states: each id stands for a distinct canonical state whose
    `global_steps`, canonicalised, are exactly its edges, in the same order."""
    table = StepTable()
    start = table.intern(g)
    assert table.states[start] == canonicalize(g)
    seen = {start}
    frontier = [start]
    expanded = 0
    while frontier and expanded != limit:
        sid = frontier.pop(0)
        expanded += 1
        want = [(label, canonicalize(succ))
                for label, succ in global_steps(table.states[sid])]
        got = list(table.edges(sid).items())
        assert [(label, table.states[succ]) for label, succ in got] == want
        for _, succ in got:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len(set(table.states)) == len(table.states)
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
