"""The compiled LTSs against the plain step functions: the global edges
against `global_steps`, each role's local edges against `local_steps`,
the configuration LTS (per-role local edges over id tuples) against
`config_steps`, and the step maps they are built from."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from routedmpst.analysis import (
    check_trace_equivalence, config_traces, global_traces, reachable_states,
)
from routedmpst.core import (
    GComm, GEnd, GRec, GVar, InvalidType, LEnd, LRec, LSelect, LVar, Role, canonicalize,
    direct_send, participants,
)
from routedmpst.encoding import encode_global
from routedmpst.semantics import (
    CompiledConfigurations, Configuration, Tables, config_steps, dict_of_steps,
    global_steps, local_steps, project_configuration,
)
from routedmpst.simulator import SessionLog, validate_log
from routedmpst.wellformed import check_wf

from corpus import A, B, CORPUS_ROUTERS, M1, S, load
from mutation import GLOBAL_RULES, rules_disabled
from strategies import ROLE_POOL, global_types


def _check_table(t, role=None, limit=None):
    """Breadth-first over the edges of `role` (None: the global LTS) from
    `t`, through at most `limit` states: each id stands for a distinct
    canonical state (`tables.form(sid)`) whose `global_steps` (or
    `local_steps`) are exactly its edges, in canonical form; global edges
    keep their order too."""
    tables = Tables()
    start = tables.intern(t)
    assert tables.form(start) == canonicalize(t)
    seen = {start}
    frontier = [start]
    expanded = 0
    while frontier and expanded != limit:
        sid = frontier.pop(0)
        expanded += 1
        state = tables.form(sid)
        want = [(label, canonicalize(succ)) for label, succ in
                (global_steps(state) if role is None else local_steps(state, role))]
        got = list(tables.edges(sid, role).items())
        if role is not None:
            got.sort(key=lambda step: step[0].sort_key())
        assert [(label, tables.form(succ)) for label, succ in got] == want
        for _, succ in got:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len({tables.form(sid) for sid in seen}) == len(seen)
    return len(seen)


def _corpus_type(name, encoded):
    g = load(name)
    return encode_global(g, Role(CORPUS_ROUTERS[name])) if encoded else g


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_global_step_table_matches_global_steps(name, encoded):
    assert _check_table(_corpus_type(name, encoded)) > 1


# The Battleships LTS has 165 states, plain and encoded, and `global_steps`
# costs ~10 ms on each; its runs with a rule disabled stop after 20 states.
@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_global_step_table_with_each_rule_disabled(name, encoded):
    g = _corpus_type(name, encoded)
    for rule in GLOBAL_RULES:
        with rules_disabled(rule):
            _check_table(g, limit=20 if name == "Battleships" else None)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(global_types(depth=4, roles=ROLE_POOL), st.data())
def test_step_tables_match_step_functions_on_well_formed_types(g, data):
    """Beyond the corpus: the global table of a generated `wf` type and of
    its encoding, and every role's local table of both projections.  Some of
    these LTSs are infinite, so each check stops after 50 states."""
    assume(check_wf(g).ok and participants(g))
    router = data.draw(st.sampled_from(sorted(participants(g), key=lambda r: r.name)))
    for t in (g, encode_global(g, router)):
        _check_table(t, limit=50)
        for role, local in project_configuration(t).locals:
            _check_table(local, role, limit=50)


def configuration(lts, key):
    """The canonical configuration a key of `lts` stands for."""
    sids, contents = key
    return Configuration(
        locals=tuple((r, lts.tables.form(sid)) for r, sid in zip(lts.roles, sids)),
        buffers=tuple(zip(lts.pairs, contents)))


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
        want = [(label, succ.canonical())
                for label, succ in config_steps(configuration(lts, key))]
        got = sorted(lts.steps(key).items(), key=lambda step: step[0].sort_key())
        assert [(label, configuration(lts, succ)) for label, succ in got] == want
        for _, succ in got:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len(seen) > 1
    assert configuration(lts, lts.initial) == \
        project_configuration(encode_global(load(name), router)).canonical()


def test_conflicting_duplicate_label_raises():
    a, b = ROLE_POOL[:2]
    label = direct_send(a, b, M1)
    assert dict_of_steps([(label, LEnd()), (label, LEnd())]) == {label: LEnd()}
    with pytest.raises(InvalidType):
        dict_of_steps([(label, LEnd()), (label, LVar("t"))])


# Malformed types an interner must not explore, global and local: duplicate
# labels, an empty branch set, a non-contractive binder.
MALFORMED = {
    "duplicate-labels": (GComm(A, B, ((M1, GEnd()), (M1, GEnd()))),
                         LSelect(B, ((M1, LEnd()), (M1, LEnd())))),
    "empty-branches": (GComm(A, B, ()), LSelect(B, ())),
    "non-contractive": (GRec("x", GRec("y", GVar("x"))), LRec("x", LRec("y", LVar("x")))),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_types_are_rejected_at_every_entry_point(name):
    """Each type an interner or a step function takes from outside is
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
