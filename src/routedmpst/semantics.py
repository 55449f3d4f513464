"""Executable transition semantics: the labelled transition systems over
global types, local types and configurations (local types plus FIFO buffers),
and buffer projection.

Both LTSs run on one rule table, `RULES`, keyed by the paper's rule names:
Gr1..Gr9 for global types and Lr1..Lr11 for local types.  `_NODE_RULES`
gives the rules of each node class, head rule first, and `_steps` applies
them, as copied into the `Tables` it steps, for the global LTS when `me`
is None and for `me`'s local LTS otherwise.  Each node's steps split into
head rules, where the node's own prefix fires, and commuting rules, where
an action from under the prefix fires first:

- head rules: Gr1, Gr2, Gr6, Gr7 and Lr1, Lr2, Lr4-Lr7.  The local ones are
  also the edges of the endpoint state machine (`local_head_steps`, which
  `efsm.build_efsm` applies to key nodes).
- `_unfold`: Gr3 and Lr3, recursion with a cycle cut, each binder id
  unfolded once per `core.CanonicalIds` interner, by substitution over its
  keys (`unfold_id`), so no unfolding builds or walks a type.
- `_commute_all`: Gr4/Gr8, Lr8 and Lr10/Lr11; the subject filter depends on
  the node's class.  It steps the branches in order and stops at the first
  one that leaves no candidate label.
- `_commute_chosen`: Gr5/Gr9 and Lr9.

`_steps` steps canonical ids, not type objects: a rule reads the key node
the interner holds for an id (same class, children ids, branches sorted by
label name), and a successor it builds is a key node, interned as it is, so
no successor is built as a type or walked.

`Tables` is the one interner and the one step memo of a run: `derived`
keeps the steps of each (id, role, cut stack) as `{label: successor id}`,
built once, so canonically equal subterms share one derivation.  Its
`edges(sid, role)` are the edges of a state, for the global LTS (role
None, labels in `sort_key` order) or for that role's local LTS (rule
order); canonical forms are built from ids only where a state is printed or
returned.  The checkers in `analysis` search the global edges.  The local
edges back `CompiledConfigurations`, which steps over tuples of state ids
plus buffers and shares the configuration rule (`_enabled`) with
`config_steps`, the form over `Configuration` values.  A `Tables` also keeps
the projections and encodings made in its run and its trace-equivalence
reports, so several checks of the same protocol and its encoding derive
each step and project each role once; a checker given none makes its own,
and so do the one-shot `global_steps`, `local_steps` and `config_steps`,
which return successors in canonical form.
"""

from __future__ import annotations

from .core import (
    ActionLabel, AnyType, CanonicalIds, GComm, GEnd, GRec, GRouted, GRoutedTransit,
    GTransit, GVar, GlobalType, InvalidType, LBranch, LEnd, LRec, LRouter,
    LRouterTransit, LRoutedBranch, LRoutedSelect, LSelect, LVar, LocalType, MsgLabel,
    Role, SEND, _with_branches, branch_for, direct_recv, direct_send,
    participants, record, routed_recv, routed_send, validate,
)
from .encoding import _encode_id, encode_global
from .projection import project

Steps = list[tuple[ActionLabel, GlobalType]]
LocalSteps = list[tuple[ActionLabel, LocalType]]


def _sorted_steps(steps):
    return sorted(steps, key=lambda pair: pair[0].sort_key())


_NO_CUTS = frozenset()


def global_steps(g: GlobalType) -> Steps:
    """All one-step successors of a closed global type, in canonical form
    and deterministic label order.  The relation is label-deterministic, so
    each label appears at most once.  InvalidType unless `g` is a valid
    closed type."""
    return _formed_steps(g, None)


def local_steps(t: LocalType, self_role: Role) -> LocalSteps:
    """All one-step successors of a local type, in canonical form, labelled
    from the point of view of `self_role` (which fills in the endpoint the
    syntax leaves implicit).  InvalidType unless `t` is a valid closed
    type."""
    return _formed_steps(t, self_role)


def _formed_steps(t: AnyType, me: Role | None) -> list:
    tables = Tables()
    edges = tables.edges(tables.intern(t), me)
    return [(label, tables.form(succ)) for label, succ in _sorted_steps(edges.items())]


def local_head_steps(node, me: Role, rules: dict) -> list:
    """The actions of one local node itself (Lr1, Lr2, Lr4-Lr7) by the head
    rule of its class in `rules`, in the node's branch order, labelled from
    the point of view of `me`.  `node` is a type or key node, not a binder.

    These are the edges of the endpoint state machine.  A router node offers
    its forwarding accept (Lr6); the in-transit node it leads to offers the
    matching delivery (Lr7).  `_steps` applies the same rules to key nodes."""
    head = _NODE_RULES[type(node)]
    return rules[head[0]](node, me, None, _NO_CUTS) if head else []


def _steps(sid: int, me: Role | None, ids: Tables,
           stack: frozenset = _NO_CUTS) -> dict[ActionLabel, int]:
    """The steps of the closed id `sid` by the rules of its key node's
    class, as `{label: successor id}` (`dict_of_steps`): in `sort_key` order
    for the global LTS (`me` None), in rule order for a local one.  A rule
    takes the key node and returns its steps with each successor an id or a
    key node it built, which is interned here.  The recursion rules unfold
    binder ids with `ids`; `stack` holds the ids of the binders unfolded on
    the way down.

    The rules are those of `ids.rules`, the table `ids` was made with, so
    the steps are a pure function of `sid`, `me` and `stack`: `ids.derived`
    keeps them for the interner's life and a repeat returns the same dict."""
    key = (sid, me, stack)
    out = ids.derived.get(key)
    if out is not None:
        return out
    node, rules = ids.keys[sid], ids.rules
    steps = []
    for name in _NODE_RULES[type(node)]:
        for label, succ in rules[name](node, me, ids, stack):
            steps.append((label, succ if type(succ) is int else ids.key_id(succ)))
    if me is None:
        steps = _sorted_steps(steps)
    out = ids.derived[key] = dict_of_steps(steps)
    return out


def _unfold(node, me, ids, stack):
    """Gr3, Lr3: a recursion binder steps as its unfolding.  Cut at canonical
    repeats: the prefix rules propagate one label downward, so a derivable
    step never needs to unfold the same recursive state twice along one
    derivation path."""
    sid = ids.key_id(node)
    if sid in stack:
        return []
    return _steps(ids.unfold_id(sid), me, ids, stack | {sid}).items()


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
        steps = _steps(cont, me, ids, stack)
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
    for label, succ in _steps(branch_for(node.branches, node.chosen), me, ids, stack).items():
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


def config_steps(c: Configuration) -> list[tuple[ActionLabel, Configuration]]:
    """All one-step successors of a configuration; InvalidType unless every
    local type is a valid closed type.  Sends append to the sender->receiver
    buffer; receives pop its head.  Routed actions additionally require (and
    advance) the router's local type.  A role that moves is in canonical
    form in the successor; the others keep their local types."""
    tables = Tables()
    steps_by_role = {r: tables.edges(tables.intern(t), r) for r, t in c.locals}
    return _sorted_steps(
        (label, c._update({r: tables.form(succ) for r, succ in movers.items()}, {pair: content}))
        for label, (movers, pair, content) in _enabled(steps_by_role, dict(c.buffers)).items())


def _enabled(steps_by_role, buffers):
    """The configuration rule: every label some role can take that the
    configuration enables, as `{label: (movers, pair, content)}`.

    `steps_by_role` maps each role to its local steps `{label: successor}`
    and `buffers` each ordered role pair to its FIFO content.  The subject of
    a label, and for a routed label its router too, must each offer it; they
    move to `movers[role]`.  A send appends its message to the buffer of
    `pair`, a receive pops it from the head; `content` is the new buffer.
    Successors are opaque here, so the rule serves local types, local state
    ids and the simulator's machine states alike."""
    out = {}
    for steps in steps_by_role.values():
        for label in steps:
            if label not in out:
                fired = _apply_label(label, steps_by_role, buffers)
                if fired is not None:
                    out[label] = fired
    return out


def _apply_label(label: ActionLabel, steps_by_role, buffers):
    direction, sender, receiver, msg, via = label
    pair = (sender, receiver)
    buf = buffers.get(pair)
    if buf is None or (direction != SEND and (not buf or buf[0] != msg)):
        return None
    subject = sender if direction == SEND else receiver
    movers = {}
    for r in (subject,) if via is None else (subject, via):
        succ = steps_by_role.get(r, {}).get(label)
        if succ is None:
            return None
        movers[r] = succ
    return movers, pair, buf + (msg,) if direction == SEND else buf[1:]


def _validate(t: AnyType, _) -> None:
    validate(t)


class Tables(CanonicalIds):
    """The one interner and step memo of a run of several checks, and its
    other memos.  A check that shares it finds the steps, projections,
    encodings and decodings an earlier check or precondition made.
    `derived` maps `(sid, role, cut stack)` to the steps `_steps` derived;
    `edges(sid, role)` reads a state's entry, with no cut.  Canonical
    equality is id equality, so a search over ids visits exactly the states
    a search over canonical types visits.  `reports` keeps each
    trace-equivalence report under `(canonical id, depth, state cap)`, which
    determine it.  The steps follow `rules`, a copy of `RULES` as it was
    when this object was made, so one `Tables` never mixes the derivations
    of two rule tables: a run under another table makes its own `Tables`."""

    def __init__(self) -> None:
        super().__init__()
        self.rules = dict(RULES)
        self.derived: dict[tuple, dict[ActionLabel, int]] = {}
        self.reports: dict[tuple[int, int, int], object] = {}
        self._once: dict[tuple, tuple] = {}
        self._encoded_ids: dict[tuple[int, Role], int] = {}

    def intern(self, t: AnyType) -> int:
        """The id of a type from outside the interner; InvalidType unless it
        is a valid closed type (`check`).  Successors of valid states are not
        checked."""
        self.check(t)
        return self.of(t)

    def check(self, t: AnyType) -> None:
        """`core.validate(t)` once per object, unless this interner has met
        `t` as a closed type: every object it meets is part of a valid type."""
        met = self._met.get(id(t))
        if met is None or met[2] is None:
            self.once(_validate, t, None)

    def edges(self, sid: int, role: Role | None = None) -> dict[ActionLabel, int]:
        """The edges of the state `sid` in the global LTS (role None) or in
        `role`'s local LTS, derived the first time they are asked for."""
        try:
            return self.derived[(sid, role, _NO_CUTS)]
        except KeyError:
            return _steps(sid, role, self)

    def once(self, fn, g: GlobalType, r: Role):
        """`fn(g, r)`, made once per (function, type object, role) for this
        object's life.  Each entry keeps its type, so an id is not reused;
        an exception is raised again on every call, not kept."""
        key = (fn, id(g), r)
        met = self._once.get(key)
        if met is None:
            met = self._once[key] = (g, fn(g, r))
        return met[1]

    def project(self, g: GlobalType, r: Role) -> LocalType:
        """`projection.project(g, r)`, made once per (type object, role)."""
        return self.once(project, g, r)

    def encode(self, g: GlobalType, s: Role) -> GlobalType:
        """`encoding.encode_global(g, s)`, made once per (type object, router)."""
        return self.once(encode_global, g, s)

    def encode_id(self, sid: int, s: Role) -> int:
        """The id of the encoding through `s` of the state `sid`, made once
        per (id, router) for this object's life, with no type built.
        NotCanonical if the state has a routed node."""
        return _encode_id(sid, s, self, self._encoded_ids)


class CompiledConfigurations:
    """The configuration LTS over the local LTSs of each role.

    A configuration is a key `(ids, contents)`: one local state id of
    `tables` per role and one buffer content per ordered role pair, both in
    the order of the `Configuration` it was compiled from.  Two keys are
    equal exactly when the canonical forms of their configurations are
    equal.  `tables` is fresh if None."""

    def __init__(self, c: Configuration, tables: Tables | None = None):
        self.tables = Tables() if tables is None else tables
        self.roles = c.roles
        self.pairs = tuple(pair for pair, _ in c.buffers)
        self._pair_index = {pair: i for i, pair in enumerate(self.pairs)}
        self._steps: dict[tuple, dict] = {}
        self.initial = (tuple(self.tables.intern(t) for _, t in c.locals),
                        tuple(content for _, content in c.buffers))

    def steps(self, key) -> dict[ActionLabel, tuple]:
        """The edges of a key, `{label: successor key}`, as `config_steps`
        gives them for its configuration (not sorted by label).  Computed
        once per key: a log search expands the same key at many envelope
        indices."""
        if key not in self._steps:
            ids, contents = key
            edges = self.tables.edges
            steps_by_role = {r: edges(sid, r) for r, sid in zip(self.roles, ids)}
            out = _enabled(steps_by_role, dict(zip(self.pairs, contents)))
            for label, (movers, pair, content) in out.items():
                moved = tuple(movers.get(r, sid) for r, sid in zip(self.roles, ids))
                at = self._pair_index[pair]
                out[label] = (moved, contents[:at] + (content,) + contents[at + 1:])
            self._steps[key] = out
        return self._steps[key]

    def buffer(self, key, p: Role, q: Role) -> tuple[MsgLabel, ...]:
        return key[1][self._pair_index[(p, q)]]


def project_configuration(g: GlobalType, *, tables: Tables | None = None) -> Configuration:
    """The projected configuration of a global type: every role's projection
    plus the buffer contents induced by in-transit markers.

    The projections are those of `tables`, fresh ones if None.  Raises
    InvalidType unless `g` is a valid closed type (`Tables.check`)."""
    tables = Tables() if tables is None else tables
    tables.check(g)
    locals_map = {r: tables.project(g, r) for r in sorted(participants(g))}
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
