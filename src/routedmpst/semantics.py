"""Executable transition semantics: the labelled transition systems over
global types, local types and configurations (local types plus FIFO buffers),
and buffer projection.

Both LTSs run on one rule table, `RULES`, keyed by the paper's rule names:
Gr1..Gr9 for global types and Lr1..Lr11 for local types.  `_NODE_RULES`
gives the rules of each node class, head rule first, and `_steps` applies
them, for the global LTS when `me` is None and for `me`'s local LTS
otherwise.  Each node's steps split into head rules, where the node's own
prefix fires, and commuting rules, where an action from under the prefix
fires first:

- head rules: Gr1, Gr2, Gr6, Gr7 and Lr1, Lr2, Lr4-Lr7.  The local ones are
  also the edges of the endpoint state machine (`local_head_steps`, read by
  `efsm.build_efsm`).
- `_unfold`: Gr3 and Lr3, recursion with a cycle cut, keyed and unfolded
  through one `core.CanonicalIds` interner.
- `_commute_all`: Gr4/Gr8, Lr8 and Lr10/Lr11; the subject filter depends on
  the node's class.  It steps the branches in order and stops at the first
  one that leaves no candidate label.
- `_commute_chosen`: Gr5/Gr9 and Lr9.

`_steps` derives the steps of a (node object, role, cut stack) once per
interner: the interner (`_StepIds`) memoises them for its life, so the
states of a search share the steps of their common subterms.  The one-shot
`global_steps`, `local_steps` and `config_steps` make a fresh interner per
call.

Both LTSs have a compiled form, `StepTable`: states keyed by their
`CanonicalIds` id, each with its edges as `{label: successor id}`; canonical
forms are built from ids where a state is printed or returned.  A global table
(no role) is what the checkers in `analysis` search.  One local table per role
backs `CompiledConfigurations`, which steps over tuples of state ids plus
buffers and shares the configuration rule (`_enabled`) with `config_steps`,
the form over `Configuration` values.  `Tables` holds the global and local
tables of one run over one interner, and the projections made in that run,
so several checks of the same protocol and its encoding compile each state
and project each role once; a checker given none makes its own.
"""

from __future__ import annotations

from .core import (
    ActionLabel, AnyType, CanonicalIds, GComm, GEnd, GRec, GRouted, GRoutedTransit,
    GTransit, GVar, GlobalType, InvalidType, LBranch, LEnd, LRec, LRouter,
    LRouterTransit, LRoutedBranch, LRoutedSelect, LSelect, LVar, LocalType, MsgLabel,
    Role, SEND, _with_branches, branch_for, direct_recv, direct_send,
    participants, record, routed_recv, routed_send, validate,
)
from .encoding import _encode_global
from .projection import project

Steps = list[tuple[ActionLabel, GlobalType]]
LocalSteps = list[tuple[ActionLabel, LocalType]]


def _sorted_steps(steps):
    return sorted(steps, key=lambda pair: pair[0].sort_key())


def global_steps(g: GlobalType) -> Steps:
    """All one-step successors of a closed global type, in deterministic
    label order.  The relation is label-deterministic, so each label appears
    at most once.  InvalidType unless `g` is a valid closed type."""
    validate(g)
    return _sorted_steps(_steps(g, None, _StepIds()))


def local_steps(t: LocalType, self_role: Role) -> LocalSteps:
    """All one-step successors of a local type, labelled from the point of
    view of `self_role` (which fills in the endpoint the syntax leaves
    implicit).  InvalidType unless `t` is a valid closed type."""
    validate(t)
    return _sorted_steps(_steps(t, self_role, _StepIds()))


def local_head_steps(node: LocalType, me: Role) -> LocalSteps:
    """The actions of one local node itself (Lr1, Lr2, Lr4-Lr7), in source
    branch order, labelled from the point of view of `me`.  `node` must not
    be a recursion binder: unfold it first.

    These are the edges of the endpoint state machine.  A router node offers
    its forwarding accept (Lr6); the in-transit node it leads to offers the
    matching delivery (Lr7)."""
    rules = _NODE_RULES[type(node)]
    return RULES[rules[0]](node, me, None, frozenset()) if rules else []


class _StepIds(CanonicalIds):
    """A `CanonicalIds` interner that also memoises `_steps`, keyed by
    `(id(node), me, stack)`.  Each entry keeps its node alive, so an id is
    not reused while the memo lives; the memo lives as long as the interner,
    and `RULES` must not change in that time."""

    def __init__(self) -> None:
        super().__init__()
        self.derived: dict[tuple, tuple[AnyType, tuple]] = {}


def _steps(t: AnyType, me: Role | None, ids: _StepIds,
           stack: frozenset = frozenset()) -> tuple:
    """The steps of the closed type `t` by the rules of its node class, in
    rule order.  The recursion rules key and unfold binders with `ids`;
    `stack` holds the ids of the binders unfolded on the way down.

    The steps are a pure function of the node object, `me`, `stack` and
    `RULES`, so `ids.derived` keeps them for the interner's life and a
    repeat returns them as they are: a tuple, whose successors are shared,
    not copied."""
    key = (id(t), me, stack)
    met = ids.derived.get(key)
    if met is not None:
        return met[1]
    rules = _NODE_RULES.get(type(t))
    if rules is None:
        raise InvalidType(f"not a session type: {type(t).__name__}")
    out = []
    for name in rules:
        out.extend(RULES[name](t, me, ids, stack))
    out = tuple(out)
    ids.derived[key] = (t, out)
    return out


def no_steps(node, me, ids, stack) -> list:
    """A rule that never fires."""
    return []


def _unfold(node, me, ids, stack) -> list:
    """Gr3, Lr3: a recursion binder steps as its unfolding.  Cut at canonical
    repeats: the prefix rules propagate one label downward, so a derivable
    step never needs to unfold the same recursive state twice along one
    derivation path."""
    key = ids.of(node)
    if key in stack:
        return []
    return _steps(ids.unfold(node), me, ids, stack | {key})


# The table's entries are plain functions that call `_steps` themselves: a
# wrapper such as `functools.partial` would cost a stack frame per nesting
# level.


def _commute_all(node, me, ids, stack) -> list:
    """Gr4/Gr8, Lr8, Lr10/Lr11: an action enabled in every branch of `node`
    fires under the prefix, and every branch moves past it.  Under a direct
    local prefix (Lr10/Lr11) these are the routing actions of `me` whose
    subject is not the direct peer; under any other prefix, the actions
    whose subject is neither its sender nor its receiver.

    The branches are stepped in order, and the first one that leaves no
    candidate label ends the rule: the branches after it are not stepped."""
    per_branch = []
    candidates = None
    for _, cont in node.branches:
        steps = dict_of_steps(_steps(cont, me, ids, stack))
        if candidates is None:
            if isinstance(node, (LSelect, LBranch)):
                candidates = [label for label in steps
                              if label.via == me and label.subject != node.peer]
            else:
                candidates = [label for label in steps
                              if label.subject not in (node.sender, node.receiver)]
        else:
            candidates = [label for label in candidates if label in steps]
        if not candidates:
            return []
        per_branch.append(steps)
    out = []
    for label in candidates:
        branches = tuple((lbl, steps[label])
                         for (lbl, _), steps in zip(node.branches, per_branch))
        out.append((label, _with_branches(node, branches)))
    return out


def _commute_chosen(node, me, ids, stack) -> list:
    """Gr5/Gr9, Lr9: under an in-transit prefix only the chosen branch
    evolves, and the receiver of the pending message must not be the
    subject, which keeps its receive ordered first."""
    out = []
    for label, succ in _steps(branch_for(node.branches, node.chosen), me, ids, stack):
        if label.subject == node.receiver:
            continue
        branches = tuple((lbl, succ if lbl == node.chosen else cont)
                         for lbl, cont in node.branches)
        out.append((label, _with_branches(node, branches)))
    return out


def dict_of_steps(steps):
    """The steps as `{label: successor}`.  The transition relations are
    label-deterministic; a label with two different successors raises
    InvalidType rather than losing one of them."""
    out = {}
    for label, succ in steps:
        if label in out and out[label] != succ:
            raise InvalidType(f"label {label} has two different successors")
        out[label] = succ
    return out


# Every rule, by its name in the paper, as `(node, me, ids, stack) -> steps`.
# The head rules ignore the last two arguments.
RULES = {
    "Gr1": lambda g, me, *_: [(direct_send(g.sender, g.receiver, lbl),
                               GTransit(g.sender, g.receiver, lbl, g.branches))
                              for lbl, _ in g.branches],
    "Gr2": lambda g, me, *_: [(direct_recv(g.sender, g.receiver, g.chosen),
                               branch_for(g.branches, g.chosen))],
    "Gr3": _unfold,
    "Gr4": _commute_all,
    "Gr5": _commute_chosen,
    "Gr6": lambda g, me, *_: [(routed_send(g.sender, g.receiver, g.router, lbl),
                               GRoutedTransit(g.sender, g.receiver, g.router, lbl, g.branches))
                              for lbl, _ in g.branches],
    "Gr7": lambda g, me, *_: [(routed_recv(g.sender, g.receiver, g.router, g.chosen),
                               branch_for(g.branches, g.chosen))],
    "Gr8": _commute_all,
    "Gr9": _commute_chosen,
    "Lr1": lambda t, me, *_: [(direct_send(me, t.peer, lbl), cont) for lbl, cont in t.branches],
    "Lr2": lambda t, me, *_: [(direct_recv(t.peer, me, lbl), cont) for lbl, cont in t.branches],
    "Lr3": _unfold,
    "Lr4": lambda t, me, *_: [(routed_send(me, t.peer, t.via, lbl), cont)
                              for lbl, cont in t.branches],
    "Lr5": lambda t, me, *_: [(routed_recv(t.peer, me, t.via, lbl), cont)
                              for lbl, cont in t.branches],
    "Lr6": lambda t, me, *_: [(routed_send(t.sender, t.receiver, me, lbl),
                               LRouterTransit(t.sender, t.receiver, lbl, t.branches))
                              for lbl, _ in t.branches],
    "Lr7": lambda t, me, *_: [(routed_recv(t.sender, t.receiver, me, t.chosen),
                               branch_for(t.branches, t.chosen))],
    "Lr8": _commute_all,
    "Lr9": _commute_chosen,
    "Lr10": _commute_all,
    "Lr11": _commute_all,
}

# The rules of each node class of both grammars, head rule first.
_NODE_RULES = {
    GEnd: (), GVar: (), GRec: ("Gr3",),
    GComm: ("Gr1", "Gr4"),
    GTransit: ("Gr2", "Gr5"),
    GRouted: ("Gr6", "Gr8"),
    GRoutedTransit: ("Gr7", "Gr9"),
    LEnd: (), LVar: (), LRec: ("Lr3",),
    LSelect: ("Lr1", "Lr10"),
    LBranch: ("Lr2", "Lr11"),
    LRoutedSelect: ("Lr4",),
    LRoutedBranch: ("Lr5",),
    LRouter: ("Lr6", "Lr8"),
    LRouterTransit: ("Lr7", "Lr9"),
}


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


RolePair = tuple[Role, Role]


@record(slots=True)
class Configuration:
    """Joint state of a session: one local type per role plus a FIFO buffer
    for every ordered pair of distinct roles.

    Stored in a normalised (sorted) form so configurations hash and compare
    structurally.
    """

    locals: tuple[tuple[Role, LocalType], ...]
    buffers: tuple[tuple[RolePair, tuple[MsgLabel, ...]], ...]

    @staticmethod
    def make(locals_map: dict[Role, LocalType],
             buffers_map: dict[RolePair, tuple[MsgLabel, ...]] | None = None) -> "Configuration":
        roles = sorted(locals_map)
        buffers_map = dict(buffers_map or {})
        pairs = [(p, q) for p in roles for q in roles if p != q]
        for pair in buffers_map:
            if pair not in pairs:
                raise InvalidType(f"buffer {pair} not between participants")
        return Configuration(
            locals=tuple((r, locals_map[r]) for r in roles),
            buffers=tuple((pair, tuple(buffers_map.get(pair, ()))) for pair in pairs),
        )

    @property
    def roles(self) -> tuple[Role, ...]:
        return tuple(r for r, _ in self.locals)

    def local(self, r: Role) -> LocalType:
        for role, t in self.locals:
            if role == r:
                return t
        raise KeyError(r)

    def buffer(self, p: Role, q: Role) -> tuple[MsgLabel, ...]:
        for pair, content in self.buffers:
            if pair == (p, q):
                return content
        raise KeyError((p, q))

    def _update(self, role_updates: dict[Role, LocalType],
                buffer_updates: dict[RolePair, tuple[MsgLabel, ...]]) -> "Configuration":
        return Configuration(
            locals=tuple((r, role_updates.get(r, t)) for r, t in self.locals),
            buffers=tuple((pair, buffer_updates.get(pair, content))
                          for pair, content in self.buffers),
        )

    def canonical(self) -> "Configuration":
        ids = CanonicalIds()
        return Configuration(tuple((r, ids.form(ids.of(t))) for r, t in self.locals), self.buffers)

    def is_terminal(self) -> bool:
        return all(isinstance(t, LEnd) for _, t in self.locals) and \
            all(not content for _, content in self.buffers)


def config_steps(c: Configuration) -> list[tuple[ActionLabel, Configuration]]:
    """All one-step successors of a configuration; InvalidType unless every
    local type is a valid closed type.  Sends append to the sender->receiver
    buffer; receives pop its head.  Routed actions additionally require (and
    advance) the router's local type."""
    for _, t in c.locals:
        validate(t)
    ids = _StepIds()
    steps_by_role = {r: dict_of_steps(_steps(t, r, ids)) for r, t in c.locals}
    return _sorted_steps((label, c._update(movers, {pair: content}))
                         for label, (movers, pair, content)
                         in _enabled(steps_by_role, dict(c.buffers)).items())


def _enabled(steps_by_role, buffers):
    """The configuration rule: every label some role can take that the
    configuration enables, as `{label: (movers, pair, content)}`.

    `steps_by_role` maps each role to its local steps `{label: successor}`
    and `buffers` each ordered role pair to its FIFO content.  The subject of
    a label, and for a routed label its router too, must each offer it; they
    move to `movers[role]`.  A send appends its message to the buffer of
    `pair`, a receive pops it from the head; `content` is the new buffer.
    Successors are opaque here, so the rule serves local types and step-table
    ids alike."""
    out = {}
    for steps in steps_by_role.values():
        for label in steps:
            if label not in out:
                fired = _apply_label(label, steps_by_role, buffers)
                if fired is not None:
                    out[label] = fired
    return out


def _apply_label(label: ActionLabel, steps_by_role, buffers):
    movers = {}
    for r in (label.subject, label.via) if label.routed else (label.subject,):
        succ = steps_by_role.get(r, {}).get(label)
        if succ is None:
            return None
        movers[r] = succ
    pair = (label.sender, label.receiver)
    buf = buffers.get(pair)
    if buf is None:
        return None
    if label.direction == SEND:
        return movers, pair, buf + (label.msg,)
    if not buf or buf[0] != label.msg:
        return None
    return movers, pair, buf[1:]


class StepTable:
    """One LTS, compiled: states keyed by their `core.CanonicalIds` id, each
    with its full edges (head and commuting rules) as `{label: successor id}`.

    With a `role` it is that role's local LTS (edges in rule order); without
    one it is the global LTS (edges in the label order of `global_steps`).
    Edges follow the rules in `RULES` when the table builds them, so a table
    is used only while `RULES` is as it was then: for one checker call, or
    for one run of several checks through `Tables`.

    A state's edges are built the first time they are asked for, from steps
    the table's interner `ids` derives once per (node, role, cut stack) and
    keeps for the interner's life; the tables of one `Tables` share their
    interner.  Canonical equality is id equality, so a search over ids
    visits exactly the states a search over canonical types visits, and a
    global table may hold the states of several types, such as a protocol
    and its encoding.  `states` maps each id to the first type met with it,
    not to a canonical form."""

    def __init__(self, role: Role | None = None, ids: _StepIds | None = None):
        self.role = role
        self.ids = _StepIds() if ids is None else ids
        self.states: dict[int, AnyType] = {}
        self._edges: dict[int, dict[ActionLabel, int]] = {}

    def intern(self, t: AnyType) -> int:
        """The id of a type from outside the table; InvalidType unless it is
        a valid closed type.  Successors of valid states are not checked."""
        validate(t)
        return self._id(t)

    def _id(self, t: AnyType) -> int:
        sid = self.ids.of(t)
        self.states.setdefault(sid, t)
        return sid

    def edges(self, sid: int) -> dict[ActionLabel, int]:
        edges = self._edges.get(sid)
        if edges is None:
            steps = _steps(self.states[sid], self.role, self.ids)
            if self.role is None:
                steps = _sorted_steps(steps)
            edges = self._edges[sid] = {label: self._id(succ)
                                        for label, succ in dict_of_steps(steps).items()}
        return edges


class RuleTableChanged(RuntimeError):
    """Step tables were asked for under other `RULES` than they follow."""


class Tables:
    """The step tables of one run of several checks: one interner, one
    global `StepTable` (role None) and one local `StepTable` per role, each
    made when first asked for.  A check that shares them finds the steps
    and edges an earlier check derived, and the projections and encodings
    an earlier check or precondition made.

    The tables follow `RULES` as it was when this object was made; `table`
    raises RuleTableChanged if `RULES` has changed since."""

    def __init__(self) -> None:
        self.rules = dict(RULES)
        self.ids = _StepIds()
        self._tables: dict[Role | None, StepTable] = {}
        self._projected: dict[tuple[int, Role], tuple[GlobalType, LocalType]] = {}
        self._encoded: dict[Role, dict] = {}

    def project(self, g: GlobalType, r: Role) -> LocalType:
        """`projection.project(g, r)`, made once per (type object, role) for
        this object's life.  Each entry keeps its type, so an id is not
        reused; a MergeFailure is raised again on every call, not kept."""
        key = (id(g), r)
        met = self._projected.get(key)
        if met is None:
            met = self._projected[key] = (g, project(g, r))
        return met[1]

    def encode(self, g: GlobalType, s: Role) -> GlobalType:
        """`encoding.encode_global(g, s)`, made once per (type object, router)
        for this object's life: one identity memo per router, so encodings
        share subterms as their inputs do."""
        return _encode_global(g, s, self._encoded.setdefault(s, {}))

    def table(self, role: Role | None = None) -> StepTable:
        if self.rules != RULES:
            raise RuleTableChanged("step tables built under other RULES")
        table = self._tables.get(role)
        if table is None:
            table = self._tables[role] = StepTable(role, self.ids)
        return table


class CompiledConfigurations:
    """The configuration LTS over per-role step tables.

    A configuration is a key `(ids, contents)`: one local `StepTable` id per
    role and one buffer content per ordered role pair, both in the order of
    the `Configuration` it was compiled from.  Two keys are equal exactly
    when the canonical forms of their configurations are equal.  The local
    tables are those of `tables`, fresh ones if it is None."""

    def __init__(self, c: Configuration, tables: Tables | None = None):
        tables = Tables() if tables is None else tables
        self.roles = c.roles
        self.pairs = tuple(pair for pair, _ in c.buffers)
        self._pair_index = {pair: i for i, pair in enumerate(self.pairs)}
        self.tables = tuple(tables.table(r) for r in self.roles)
        self._steps: dict[tuple, tuple] = {}
        self.initial = (tuple(table.intern(t) for table, (_, t) in zip(self.tables, c.locals)),
                        tuple(content for _, content in c.buffers))

    def steps(self, key) -> tuple[tuple[ActionLabel, tuple], ...]:
        """The successors of a key, one per enabled label, as `config_steps`
        gives them for its configuration (not sorted by label).  Computed
        once per key: a log search expands the same few keys many times."""
        if key not in self._steps:
            ids, contents = key
            steps_by_role = {r: table.edges(sid)
                             for r, table, sid in zip(self.roles, self.tables, ids)}
            out = []
            for label, (movers, pair, content) in \
                    _enabled(steps_by_role, dict(zip(self.pairs, contents))).items():
                moved = tuple(movers.get(r, sid) for r, sid in zip(self.roles, ids))
                at = self._pair_index[pair]
                out.append((label, (moved, contents[:at] + (content,) + contents[at + 1:])))
            self._steps[key] = tuple(out)
        return self._steps[key]

    def buffer(self, key, p: Role, q: Role) -> tuple[MsgLabel, ...]:
        return key[1][self._pair_index[(p, q)]]

    def configuration(self, key) -> Configuration:
        """The canonical configuration a key stands for."""
        sids, contents = key
        return Configuration(
            locals=tuple((t.role, t.ids.form(sid)) for t, sid in zip(self.tables, sids)),
            buffers=tuple(zip(self.pairs, contents)))


def project_configuration(g: GlobalType, *, tables: Tables | None = None) -> Configuration:
    """The projected configuration of a global type: every role's projection
    plus the buffer contents induced by in-transit markers.

    The projections are those of `tables` if given.  Raises InvalidType
    unless `g` is a valid closed type."""
    validate(g)
    parts = sorted(participants(g))
    proj = project if tables is None else tables.project
    locals_map = {r: proj(g, r) for r in parts}
    buffers: dict[RolePair, tuple[MsgLabel, ...]] = {}
    _fill_buffers(g, buffers)
    return Configuration.make(locals_map, buffers)


def _fill_buffers(u: GlobalType, buffers: dict) -> None:
    """Append the message of every in-transit marker of `u` to its buffer."""
    if isinstance(u, (GEnd, GVar)):
        return
    if isinstance(u, GRec):
        _fill_buffers(u.body, buffers)
        return
    if isinstance(u, (GTransit, GRoutedTransit)):
        key = (u.sender, u.receiver)
        buffers[key] = buffers.get(key, ()) + (u.chosen,)
        _fill_buffers(branch_for(u.branches, u.chosen), buffers)
        return
    if isinstance(u, (GComm, GRouted)):
        # All branches agree on buffer contents for projectable types.
        _fill_buffers(u.branches[0][1], buffers)
        return
    raise InvalidType(type(u).__name__)
