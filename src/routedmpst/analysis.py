"""Bounded exploration and the theorem checkers: trace sets, trace
equivalence between a global type and its projected configuration, deadlock
freedom over reachable states, and the bisimulation between a canonical type
and its routed encoding.

All checks are depth- or state-bounded: they verify concrete instances of the
metatheory rather than proving it.  Resource exhaustion is reported as an
`inconclusive` verdict, never as a pass.

Every search steps over ids: global states over a global `semantics.StepTable`
(which carries the checker's `disabled` rules), configurations over
`semantics.CompiledConfigurations`.  Ids are equal exactly when canonical
states are, so the states counted are the canonical states.  The tables are
built for one checker call and dropped when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ActionLabel, GEnd, GlobalType, Role, pretty_global
from .encoding import encode_global, encode_label
from .semantics import (
    CompiledConfigurations, Configuration, StepTable, project_configuration,
)
from .wellformed import check_wf, check_wf_routed

DEFAULT_STATE_CAP = 10 ** 6

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class StateBudgetExceeded(RuntimeError):
    """Exploration hit the configured state cap before finishing."""

    def __init__(self, cap: int, states: int):
        self.cap = cap
        self.states = states
        super().__init__(f"state budget exceeded: {states} >= {cap}")


class PreconditionError(ValueError):
    """A checker was invoked on input violating its stated precondition."""


@dataclass(frozen=True)
class TraceSet:
    """A prefix-closed set of action sequences up to a bounded depth."""

    depth: int
    traces: frozenset[tuple[ActionLabel, ...]]

    def __contains__(self, trace) -> bool:
        return tuple(trace) in self.traces

    def is_prefix_closed(self) -> bool:
        return all(trace[:-1] in self.traces for trace in self.traces if trace)


@dataclass(frozen=True)
class Counterexample:
    trace: tuple[ActionLabel, ...]
    detail: str

    def __str__(self) -> str:
        shown = " . ".join(str(a) for a in self.trace) or "<empty>"
        return f"{shown} -- {self.detail}"


@dataclass(frozen=True)
class ExplorationReport:
    check: str
    verdict: str
    states_visited: int
    depth_reached: int
    counterexample: Counterexample | None = None

    def __post_init__(self):
        assert (self.counterexample is not None) == (self.verdict == FAIL)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def lines(self) -> list[str]:
        out = [f"check={self.check}",
               f"verdict={self.verdict}",
               f"states={self.states_visited}",
               f"depth={self.depth_reached}"]
        if self.counterexample is not None:
            out.append(f"counterexample={self.counterexample}")
        return out


# ---------------------------------------------------------------------------
# Trace enumeration
# ---------------------------------------------------------------------------


def _trace_set(start, steps, depth: int, state_cap: int):
    """The trace set from the state key `start` up to `depth`, and the
    number of states expanded.  `steps(key)` gives the (label, successor
    key) pairs of a key; keys are equal exactly when their canonical states
    are.  Successors are memoised per key; expanding more than `state_cap`
    states raises StateBudgetExceeded."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    succs: dict = {}
    memo: dict[tuple[object, int], frozenset] = {}
    result = _traces_from(start, depth, steps, state_cap, succs, memo)
    return TraceSet(depth, result), len(succs)


def _traces_from(state, d: int, steps, state_cap: int, succs: dict,
                 memo: dict) -> frozenset:
    """The traces of length at most `d` from `state`, filling `succs` (the
    successors of each state expanded) and `memo` (trace sets by state and
    depth) as it goes."""
    if d == 0:
        return frozenset({()})
    key = (state, d)
    if key not in memo:
        if state not in succs:
            if len(succs) >= state_cap:
                raise StateBudgetExceeded(state_cap, len(succs))
            succs[state] = tuple(steps(state))
        acc = {()}
        for label, nxt in succs[state]:
            for tail in _traces_from(nxt, d - 1, steps, state_cap, succs, memo):
                acc.add((label,) + tail)
        memo[key] = frozenset(acc)
    return memo[key]


def _global_trace_set(g: GlobalType, depth: int, state_cap: int, disabled: frozenset[str]):
    table = StepTable(disabled=disabled)
    return _trace_set(table.intern(g), lambda sid: table.edges(sid).items(), depth, state_cap)


def _config_trace_set(c: Configuration, depth: int, state_cap: int):
    lts = CompiledConfigurations(c)
    return _trace_set(lts.initial, lts.steps, depth, state_cap)


def global_traces(g: GlobalType, depth: int,
                  state_cap: int = DEFAULT_STATE_CAP,
                  disabled: frozenset[str] = frozenset()) -> TraceSet:
    """Exact prefix-closed trace set of the global LTS up to `depth`."""
    return _global_trace_set(g, depth, state_cap, disabled)[0]


def config_traces(g: GlobalType, depth: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> TraceSet:
    """Trace set of the configuration LTS started from the projected
    configuration of `g`."""
    return _config_trace_set(project_configuration(g), depth, state_cap)[0]


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _shortest_difference(a: frozenset, b: frozenset) -> tuple[ActionLabel, ...]:
    return min(a.symmetric_difference(b),
               key=lambda tr: (len(tr), tuple(x.sort_key() for x in tr)))


def check_trace_equivalence(g: GlobalType, depth: int,
                            state_cap: int = DEFAULT_STATE_CAP,
                            disabled: frozenset[str] = frozenset()) -> ExplorationReport:
    """Compare the global LTS against the configuration LTS of the projected
    initial configuration, up to `depth`."""
    name = "trace_equivalence"
    try:
        gset, g_states = _global_trace_set(g, depth, state_cap, disabled)
        cset, c_states = _config_trace_set(project_configuration(g), depth, state_cap)
    except StateBudgetExceeded as exc:
        return ExplorationReport(name, INCONCLUSIVE, exc.states, depth)
    states = g_states + c_states
    if gset.traces == cset.traces:
        return ExplorationReport(name, PASS, states, depth)
    witness = _shortest_difference(gset.traces, cset.traces)
    side = "global-only" if witness in gset.traces else "configuration-only"
    return ExplorationReport(name, FAIL, states, depth,
                             Counterexample(witness, f"trace is {side}"))


def _explore(name: str, table: StepTable, g: GlobalType, visit, depth: int | None,
             state_cap: int) -> tuple[ExplorationReport, dict]:
    """Breadth-first search over the ids of `table` reachable from `g`,
    `depth` levels deep (`None`: until no new state appears).

    `visit(sid, trace, edges)` sees each expanded state id with the shortest
    trace reaching it and its edges `{label: successor id}`, in the label
    order of `global_steps`.  It yields the (label, successor id) pairs to
    follow, or a Counterexample, which ends the search with `fail`.
    Successors are recorded as they are yielded, so a failure counts only the
    states found before it.  More than `state_cap` states before an expansion
    ends the search with `inconclusive`.

    Returns the report and the map from each id found to its shortest
    trace, in BFS order."""
    start = table.intern(g)
    seen = {start: ()}
    frontier = [start]
    level = 0
    while frontier and (depth is None or level < depth):
        nxt_frontier = []
        for sid in frontier:
            if len(seen) > state_cap:
                return ExplorationReport(name, INCONCLUSIVE, len(seen), level), seen
            for item in visit(sid, seen[sid], table.edges(sid)):
                if isinstance(item, Counterexample):
                    return ExplorationReport(name, FAIL, len(seen), level, item), seen
                label, succ = item
                if succ not in seen:
                    seen[succ] = seen[sid] + (label,)
                    nxt_frontier.append(succ)
        frontier = nxt_frontier
        level += 1
    return ExplorationReport(name, PASS, len(seen), level), seen


def check_deadlock_freedom(g: GlobalType, router: Role,
                           state_cap: int = DEFAULT_STATE_CAP,
                           disabled: frozenset[str] = frozenset()) -> ExplorationReport:
    """Every reachable state of a routed-well-formed type is terminal or can
    step.  Exploration is exhaustive over canonical states (finite for the
    corpus), bounded by `state_cap`."""
    wf = check_wf_routed(g, router)
    if not wf.ok:
        raise PreconditionError(f"type not well-formed for router {router}: {wf.describe()}")
    table = StepTable(disabled=disabled)

    def visit(sid, trace, edges):
        state = table.states[sid]
        if not edges and not isinstance(state, GEnd):
            yield Counterexample(trace, f"stuck non-terminal state:\n{pretty_global(state)}")
        yield from edges.items()

    return _explore("deadlock_freedom", table, g, visit, None, state_cap)[0]


def check_encoding_bisim(g: GlobalType, s: Role, depth: int,
                         state_cap: int = DEFAULT_STATE_CAP,
                         disabled: frozenset[str] = frozenset()) -> ExplorationReport:
    """Check, over all states reachable from `g` within `depth`, that the
    encoding maps transitions one-to-one: l is enabled at G' exactly when its
    encoding is enabled at the encoding of G', with successors related by the
    encoding again.

    Plain and encoded states live in two step tables; a successor pair is
    related when the encoded table gives the encoding of the plain successor
    the same id as the encoded successor."""
    wf = check_wf(g)
    if not wf.ok:
        raise PreconditionError(f"type not well-formed: {wf.describe()}")
    plain, encoded = StepTable(disabled=disabled), StepTable(disabled=disabled)
    encoded_id: dict[int, int] = {}

    def encode(sid):
        if sid not in encoded_id:
            encoded_id[sid] = encoded.intern(encode_global(plain.states[sid], s))
        return encoded_id[sid]

    def visit(sid, trace, edges):
        enc_edges = encoded.edges(encode(sid))
        if len(edges) != len(enc_edges):
            extra = set(enc_edges) - {encode_label(l, s) for l in edges}
            yield Counterexample(
                trace, f"enabled-set mismatch, encoded side has {sorted(map(str, extra))}")
        for label, succ in edges.items():
            enc_lbl = encode_label(label, s)
            if enc_lbl not in enc_edges:
                yield Counterexample(trace + (label,), f"{enc_lbl} not enabled on encoded state")
            elif enc_edges[enc_lbl] != encode(succ):
                yield Counterexample(trace + (label,),
                                     "encoded successor differs from encoding of successor")
            else:
                yield label, succ

    return _explore("encoding_bisim", plain, g, visit, depth, state_cap)[0]


def reachable_states(g: GlobalType, depth: int,
                     state_cap: int = DEFAULT_STATE_CAP) -> list[GlobalType]:
    """Canonical states reachable from g within `depth` steps (BFS order)."""
    table = StepTable()
    report, seen = _explore("reachable_states", table, g,
                            lambda sid, trace, edges: edges.items(), depth, state_cap)
    if report.verdict == INCONCLUSIVE:
        raise StateBudgetExceeded(state_cap, report.states_visited)
    return [table.states[sid] for sid in seen]
