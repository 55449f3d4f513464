"""Bounded exploration and the theorem checkers: trace sets, trace
equivalence between a global type and its projected configuration, deadlock
freedom over reachable states, and the bisimulation between a canonical type
and its routed encoding.

All checks are depth- or state-bounded: they verify concrete instances of the
metatheory rather than proving it.  Resource exhaustion is reported as an
`inconclusive` verdict, never as a pass.

One breadth-first search, `_explore`, runs all four checks, the trace
sets and `reachable_states`, over keys: global state ids of a
`semantics.Tables` or, for trace equivalence, pairs of such an id and a
`semantics.CompiledConfigurations` key.  Keys are equal exactly when
canonical states are, so the states counted are canonical states (or pairs
of them); only states printed or returned are put in canonical form.
Trace sets are the path products of the edges `_explore` expands.  It keeps
one parent link per key, not a trace, and rebuilds a trace only for a
counterexample, so the simulator's loop test, whose keys lie as deep as a
whole machine, searches through it too.  It starts from a set of keys, so
log validation closes each envelope's layer of configurations with it.

Each checker takes the `semantics.Tables` to search as a keyword: `verify`
passes one to all four checks, so a state one check compiled, or a role one
check or precondition projected, is not compiled or projected again by the
next, and the encoded trace-equivalence check of a protocol whose encoding
is canonically itself reads the plain check's report.  Without it a checker
makes a fresh `Tables`, which lives for the call.
"""

from __future__ import annotations

from .core import ActionLabel, GEnd, GlobalType, Role, pretty_global, record
from .encoding import encode_label
from .semantics import CompiledConfigurations, Tables, project_configuration
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


@record
class TraceSet:
    """A prefix-closed set of action sequences up to a bounded depth."""

    depth: int
    traces: frozenset[tuple[ActionLabel, ...]]

    def __contains__(self, trace) -> bool:
        return tuple(trace) in self.traces


@record
class Counterexample:
    trace: tuple[ActionLabel, ...]
    detail: str

    def __str__(self) -> str:
        shown = " . ".join(str(a) for a in self.trace) or "<empty>"
        return f"{shown} -- {self.detail}"


@record
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


def _traces(start, steps, depth: int, state_cap: int) -> TraceSet:
    """The traces of length at most `depth` from the key `start`: the path
    products of the edges `{label: successor key}` `steps(key)` gives for the
    keys `_explore` expands.  The LTS is label-deterministic, so distinct
    paths have distinct traces.  StateBudgetExceeded where the search is
    inconclusive."""
    edges = {}
    report, _ = _explore("traces", (start,), steps,
                         lambda key, out: edges.setdefault(key, out).items(), depth, state_cap)
    if report.verdict == INCONCLUSIVE:
        raise StateBudgetExceeded(state_cap, report.states_visited)
    paths = [((), start)]
    traces = {()}
    for _ in range(depth):
        paths = [(trace + (label,), succ)
                 for trace, key in paths for label, succ in edges[key].items()]
        traces.update(trace for trace, _ in paths)
    return TraceSet(depth, frozenset(traces))


def global_traces(g: GlobalType, depth: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> TraceSet:
    """Exact prefix-closed trace set of the global LTS up to `depth`."""
    tables = Tables()
    return _traces(tables.intern(g), tables.edges, depth, state_cap)


def config_traces(g: GlobalType, depth: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> TraceSet:
    """Trace set of the configuration LTS started from the projected
    configuration of `g`."""
    tables = Tables()
    lts = CompiledConfigurations(project_configuration(g, tables=tables), tables)
    return _traces(lts.initial, lts.steps, depth, state_cap)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def check_trace_equivalence(g: GlobalType, depth: int,
                            state_cap: int = DEFAULT_STATE_CAP, *,
                            tables: Tables | None = None) -> ExplorationReport:
    """Compare the global LTS against the configuration LTS of the projected
    initial configuration, up to `depth`: the trace sets agree exactly when
    every pair (global state id, configuration key) found within `depth - 1`
    steps enables the same labels on both sides.  The search follows labels
    in the global edges' `sort_key` order, so the first mismatch it meets
    gives the least witness: shortest, then least by `sort_key`.

    Both LTSs, and so the report, are functions of the canonical form of
    `g`: `tables.reports` keeps it, and a canonically equal type checked
    again in the same tables gets it back with no search."""
    tables = Tables() if tables is None else tables
    start = tables.intern(g)
    key = (start, depth, state_cap)
    report = tables.reports.get(key)
    if report is None:
        report = tables.reports[key] = _trace_equivalence(g, start, depth, state_cap, tables)
    return report


def _trace_equivalence(g, start, depth, state_cap, tables) -> ExplorationReport:
    lts = CompiledConfigurations(project_configuration(g, tables=tables), tables)

    def steps(pair):
        sid, key = pair
        return tables.edges(sid), lts.steps(key)

    def visit(pair, edges):
        g_edges, c_edges = edges
        mismatch = g_edges.keys() ^ c_edges.keys()
        if mismatch:
            label = min(mismatch, key=ActionLabel.sort_key)
            side = "global-only" if label in g_edges else "configuration-only"
            yield Counterexample((label,), f"trace is {side}")
        for label, sid in g_edges.items():
            yield label, (sid, c_edges[label])

    return _explore("trace_equivalence", ((start, lts.initial),), steps, visit,
                    depth, state_cap)[0]


def _explore(name: str, starts, steps, visit, depth: int | None,
             state_cap: int) -> tuple[ExplorationReport, dict]:
    """Breadth-first search over the keys reachable from the keys `starts`,
    `depth` levels deep (`None`: until no new key appears).

    `visit(key, steps(key))` sees each expanded key once.  It yields the
    (label, successor key) pairs to follow, or a Counterexample whose trace
    is the part after `key`, which ends the search with `fail`; the search
    then prepends the shortest trace reaching `key`, rebuilt from the
    parent links.  When every `visit` yields its labels in `sort_key`
    order, that trace is also the least by `sort_key` among the shortest.
    Successors are recorded as they are yielded, so a failure counts only
    the keys found before it.  More than `state_cap` keys before an
    expansion ends the search with `inconclusive`; keys found on the last
    level of a depth-bounded search are never expanded, so they do not
    count.

    Returns the report and the map from each key found to its parent link,
    (parent key, label), or None for a start key, in BFS order."""
    if depth is not None and depth < 0:
        raise ValueError("depth must be nonnegative")
    seen = dict.fromkeys(starts)
    frontier = list(seen)
    level = 0
    while frontier and (depth is None or level < depth):
        last_level = depth is not None and level == depth - 1
        found = len(seen)
        nxt_frontier = []
        for key in frontier:
            if (found if last_level else len(seen)) > state_cap:
                return ExplorationReport(name, INCONCLUSIVE, len(seen), level), seen
            for item in visit(key, steps(key)):
                if isinstance(item, Counterexample):
                    trace, at = item.trace, key
                    while seen[at] is not None:
                        at, label = seen[at]
                        trace = (label,) + trace
                    item = Counterexample(trace, item.detail)
                    return ExplorationReport(name, FAIL, len(seen), level, item), seen
                label, succ = item
                if succ not in seen:
                    seen[succ] = key, label
                    nxt_frontier.append(succ)
        frontier = nxt_frontier
        level += 1
    return ExplorationReport(name, PASS, len(seen), level), seen


def check_deadlock_freedom(g: GlobalType, router: Role,
                           state_cap: int = DEFAULT_STATE_CAP, *,
                           tables: Tables | None = None) -> ExplorationReport:
    """Every reachable state of a routed-well-formed type is terminal or can
    step.  Exploration is exhaustive over canonical states (finite for the
    corpus), bounded by `state_cap`."""
    tables = Tables() if tables is None else tables
    wf = check_wf_routed(g, router, tables=tables)
    if not wf.ok:
        raise PreconditionError(f"type not well-formed for router {router}: {wf.describe()}")
    start = tables.intern(g)
    end = tables.key_id(GEnd())

    def visit(sid, edges):
        if not edges and sid != end:
            state = pretty_global(tables.form(sid))
            yield Counterexample((), f"stuck non-terminal state:\n{state}")
        yield from edges.items()

    return _explore("deadlock_freedom", (start,), tables.edges, visit, None, state_cap)[0]


def check_encoding_bisim(g: GlobalType, s: Role, depth: int,
                         state_cap: int = DEFAULT_STATE_CAP, *,
                         tables: Tables | None = None) -> ExplorationReport:
    """Check, over all states reachable from `g` within `depth`, that the
    encoding maps transitions one-to-one: l is enabled at G' exactly when its
    encoding is enabled at the encoding of G', with successors related by the
    encoding again.

    Plain and encoded states are ids of one interner, which are canonical;
    a successor pair is related when the encoding of the plain successor
    has the id of the encoded successor."""
    tables = Tables() if tables is None else tables
    wf = check_wf(g, tables=tables)
    if not wf.ok:
        raise PreconditionError(f"type not well-formed: {wf.describe()}")
    start = tables.intern(g)

    def visit(sid, edges):
        enc_edges = tables.edges(tables.encode_id(sid, s))
        if len(edges) != len(enc_edges):
            extra = set(enc_edges) - {encode_label(l, s) for l in edges}
            yield Counterexample(
                (), f"enabled-set mismatch, encoded side has {sorted(map(str, extra))}")
        for label, succ in edges.items():
            enc_lbl = encode_label(label, s)
            if enc_lbl not in enc_edges:
                yield Counterexample((label,), f"{enc_lbl} not enabled on encoded state")
            elif enc_edges[enc_lbl] != tables.encode_id(succ, s):
                yield Counterexample((label,),
                                     "encoded successor differs from encoding of successor")
            else:
                yield label, succ

    return _explore("encoding_bisim", (start,), tables.edges, visit, depth, state_cap)[0]


def reachable_states(g: GlobalType, depth: int,
                     state_cap: int = DEFAULT_STATE_CAP) -> list[GlobalType]:
    """Canonical states reachable from g within `depth` steps (BFS order)."""
    tables = Tables()
    report, seen = _explore("reachable_states", (tables.intern(g),), tables.edges,
                            lambda sid, edges: edges.items(), depth, state_cap)
    if report.verdict == INCONCLUSIVE:
        raise StateBudgetExceeded(state_cap, report.states_visited)
    return [tables.form(sid) for sid in seen]
