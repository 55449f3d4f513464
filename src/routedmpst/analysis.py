"""Bounded exploration and the theorem checkers: trace sets, trace
equivalence between a global type and its projected configuration, deadlock
freedom over reachable states, and the bisimulation between a canonical type
and its routed encoding.

All checks are depth- or state-bounded: they verify concrete instances of the
metatheory rather than proving it.  Resource exhaustion is reported as an
`inconclusive` verdict, never as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ActionLabel, GEnd, GlobalType, Role, canonicalize, pretty_global,
)
from .encoding import encode_global, encode_label
from .semantics import (
    Configuration, config_steps, global_steps, project_configuration,
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


def _trace_set(initial, step_fn, depth: int, state_cap: int):
    """The trace set from `initial` up to `depth`, and the number of canonical
    states expanded.  Successors are memoised per canonical state; expanding
    more than `state_cap` states raises StateBudgetExceeded."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    canon = Configuration.canonical if isinstance(initial, Configuration) else canonicalize
    succs: dict = {}
    memo: dict[tuple[object, int], frozenset] = {}
    result = _traces_from(canon(initial), depth, step_fn, canon, state_cap, succs, memo)
    return TraceSet(depth, result), len(succs)


def _traces_from(state, d: int, step_fn, canon, state_cap: int, succs: dict,
                 memo: dict) -> frozenset:
    """The traces of length at most `d` from `state`, filling `succs` (the
    canonical successors of each state expanded) and `memo` (trace sets by
    state and depth) as it goes."""
    if d == 0:
        return frozenset({()})
    key = (state, d)
    if key not in memo:
        if state not in succs:
            if len(succs) >= state_cap:
                raise StateBudgetExceeded(state_cap, len(succs))
            succs[state] = tuple((label, canon(nxt)) for label, nxt in step_fn(state))
        acc = {()}
        for label, nxt in succs[state]:
            for tail in _traces_from(nxt, d - 1, step_fn, canon, state_cap, succs, memo):
                acc.add((label,) + tail)
        memo[key] = frozenset(acc)
    return memo[key]


def global_traces(g: GlobalType, depth: int,
                  state_cap: int = DEFAULT_STATE_CAP,
                  disabled: frozenset[str] = frozenset()) -> TraceSet:
    """Exact prefix-closed trace set of the global LTS up to `depth`."""
    ts, _ = _trace_set(g, lambda s: global_steps(s, disabled), depth, state_cap)
    return ts


def config_traces(g: GlobalType, depth: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> TraceSet:
    """Trace set of the configuration LTS started from the projected
    configuration of `g`."""
    initial = project_configuration(g)
    ts, _ = _trace_set(initial, config_steps, depth, state_cap)
    return ts


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
        gset, g_states = _trace_set(g, lambda s: global_steps(s, disabled), depth, state_cap)
        cset, c_states = _trace_set(project_configuration(g), config_steps, depth, state_cap)
    except StateBudgetExceeded as exc:
        return ExplorationReport(name, INCONCLUSIVE, exc.states, depth)
    states = g_states + c_states
    if gset.traces == cset.traces:
        return ExplorationReport(name, PASS, states, depth)
    witness = _shortest_difference(gset.traces, cset.traces)
    side = "global-only" if witness in gset.traces else "configuration-only"
    return ExplorationReport(name, FAIL, states, depth,
                             Counterexample(witness, f"trace is {side}"))


def _explore(name: str, g: GlobalType, visit, depth: int | None, state_cap: int,
             disabled: frozenset[str]) -> tuple[ExplorationReport, dict]:
    """Breadth-first search over the canonical global states reachable from
    `g`, `depth` levels deep (`None`: until no new state appears).

    `visit(state, trace, succs)` sees each expanded state with the shortest
    trace reaching it and its `global_steps`.  It yields the (label, successor)
    pairs to follow, or a Counterexample, which ends the search with `fail`.
    Successors are recorded as they are yielded, so a failure counts only the
    states found before it.  More than `state_cap` states before an expansion
    ends the search with `inconclusive`.

    Returns the report and the map from each state found to its shortest
    trace, in BFS order."""
    start = canonicalize(g)
    seen = {start: ()}
    frontier = [start]
    level = 0
    while frontier and (depth is None or level < depth):
        nxt_frontier = []
        for state in frontier:
            if len(seen) > state_cap:
                return ExplorationReport(name, INCONCLUSIVE, len(seen), level), seen
            for item in visit(state, seen[state], global_steps(state, disabled)):
                if isinstance(item, Counterexample):
                    return ExplorationReport(name, FAIL, len(seen), level, item), seen
                label, succ = item
                key = canonicalize(succ)
                if key not in seen:
                    seen[key] = seen[state] + (label,)
                    nxt_frontier.append(key)
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

    def visit(state, trace, succs):
        if not succs and not isinstance(state, GEnd):
            yield Counterexample(trace, f"stuck non-terminal state:\n{pretty_global(state)}")
        yield from succs

    return _explore("deadlock_freedom", g, visit, None, state_cap, disabled)[0]


def check_encoding_bisim(g: GlobalType, s: Role, depth: int,
                         state_cap: int = DEFAULT_STATE_CAP,
                         disabled: frozenset[str] = frozenset()) -> ExplorationReport:
    """Check, over all states reachable from `g` within `depth`, that the
    encoding maps transitions one-to-one: l is enabled at G' exactly when its
    encoding is enabled at the encoding of G', with successors related by the
    encoding again."""
    wf = check_wf(g)
    if not wf.ok:
        raise PreconditionError(f"type not well-formed: {wf.describe()}")

    def visit(state, trace, plain):
        encoded = dict(global_steps(encode_global(state, s), disabled))
        if len(plain) != len(encoded):
            extra = set(encoded) - {encode_label(l, s) for l, _ in plain}
            yield Counterexample(
                trace, f"enabled-set mismatch, encoded side has {sorted(map(str, extra))}")
        for label, succ in plain:
            enc_lbl = encode_label(label, s)
            if enc_lbl not in encoded:
                yield Counterexample(trace + (label,), f"{enc_lbl} not enabled on encoded state")
            elif canonicalize(encoded[enc_lbl]) != canonicalize(encode_global(succ, s)):
                yield Counterexample(trace + (label,),
                                     "encoded successor differs from encoding of successor")
            else:
                yield label, succ

    return _explore("encoding_bisim", g, visit, depth, state_cap, disabled)[0]


def reachable_states(g: GlobalType, depth: int,
                     state_cap: int = DEFAULT_STATE_CAP) -> list[GlobalType]:
    """Canonical states reachable from g within `depth` steps (BFS order)."""
    report, seen = _explore("reachable_states", g, lambda state, trace, succs: succs,
                            depth, state_cap, frozenset())
    if report.verdict == INCONCLUSIVE:
        raise StateBudgetExceeded(state_cap, report.states_visited)
    return list(seen)
