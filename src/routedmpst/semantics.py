"""Executable transition semantics: the labelled transition systems over
global types, local types and configurations (local types plus FIFO buffers),
and buffer projection.

Global rules are named Gr1..Gr9 and local rules Lr1..Lr11 throughout.  Each
node's steps split into head rules, where the node's own prefix fires, and
commuting rules, where an action from under the prefix fires first:

- `_global_head_steps`: Gr1, Gr2, Gr6, Gr7.  Gr3 unfolds recursion in `_gsteps`.
- `local_head_steps`: Lr1, Lr2, Lr4-Lr7.  Lr3 unfolds recursion in `_lsteps`.
  These are also the edges of the endpoint state machine (`efsm.build_efsm`).
- `_commute_all`: Gr4/Gr8, Lr8 and Lr10/Lr11; each passes its own subject filter.
- `_commute_chosen`: Gr5/Gr9 and Lr9.

Both LTSs have a compiled form, `StepTable`: canonical states interned as
ids, each with its edges as `{label: successor id}`.  A global table (no
role) is what the checkers in `analysis` search.  One local table per role
backs `CompiledConfigurations`, which steps over tuples of state ids plus
buffers and shares the configuration rule (`_enabled`) with `config_steps`,
the form over `Configuration` values.

The `disabled` parameter of `global_steps` and of a global `StepTable` exists
solely for mutation testing of the checkers and must stay empty in production
use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ActionLabel, AnyType, GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit,
    GVar, GlobalType, InvalidType, LBranch, LEnd, LRec, LRouter, LRouterTransit,
    LRoutedBranch, LRoutedSelect, LSelect, LVar, LocalType, MsgLabel, Role, SEND,
    _with_branches, branch_for, canonicalize, direct_recv, direct_send,
    participants, routed_recv, routed_send, unfold_once,
)
from .projection import project

Steps = list[tuple[ActionLabel, GlobalType]]
LocalSteps = list[tuple[ActionLabel, LocalType]]

GLOBAL_RULES = frozenset({f"Gr{i}" for i in range(1, 10)})


def _sorted_steps(steps):
    return sorted(steps, key=lambda pair: pair[0].sort_key())


# ---------------------------------------------------------------------------
# Global LTS (Gr1..Gr9)
# ---------------------------------------------------------------------------


def global_steps(g: GlobalType, disabled: frozenset[str] = frozenset()) -> Steps:
    """All one-step successors of a closed global type, in deterministic
    label order.  The relation is label-deterministic, so each label appears
    at most once."""
    _check_rules(disabled)
    return _sorted_steps(_gsteps(g, disabled))


def _check_rules(disabled: frozenset[str]) -> None:
    bad = disabled - GLOBAL_RULES
    if bad:
        raise ValueError(f"unknown global rules: {sorted(bad)}")


def _gsteps(g: GlobalType, disabled, canonical_key=canonicalize,
            stack: frozenset = frozenset()) -> Steps:
    if isinstance(g, (GEnd, GVar)):
        return []
    if isinstance(g, GRec):
        if "Gr3" in disabled:
            return []
        # Cut at canonical repeats: the prefix rules propagate one label
        # downward, so a derivable step never needs to unfold the same
        # recursive state twice along one derivation path.  `canonical_key`
        # is as in `_lsteps`.
        key = canonical_key(g)
        if key in stack:
            return []
        return _gsteps(unfold_once(g), disabled, canonical_key, stack | {key})
    if type(g) not in _GLOBAL_RULE_NAMES:
        raise InvalidType(f"not a global type: {type(g).__name__}")

    head_rule, commute_rule = _GLOBAL_RULE_NAMES[type(g)]
    out: Steps = [] if head_rule in disabled else _global_head_steps(g)
    if commute_rule not in disabled:
        if isinstance(g, (GTransit, GRoutedTransit)):
            out.extend(_commute_chosen(g, _gsteps, disabled, canonical_key, stack))
        else:
            out.extend(_commute_all(g, lambda label: label.subject not in (g.sender, g.receiver),
                                    _gsteps, disabled, canonical_key, stack))
    return out


# Head rule and commuting rule of each prefix node, by rule name, so that
# `disabled` can switch off each one on its own.
_GLOBAL_RULE_NAMES = {
    GComm: ("Gr1", "Gr4"),
    GTransit: ("Gr2", "Gr5"),
    GRouted: ("Gr6", "Gr8"),
    GRoutedTransit: ("Gr7", "Gr9"),
}


def _global_head_steps(g) -> Steps:
    """Gr1/Gr2/Gr6/Gr7: the prefix itself fires."""
    if isinstance(g, GComm):  # Gr1
        return [(direct_send(g.sender, g.receiver, lbl),
                 GTransit(g.sender, g.receiver, lbl, g.branches)) for lbl, _ in g.branches]
    if isinstance(g, GTransit):  # Gr2
        return [(direct_recv(g.sender, g.receiver, g.chosen), branch_for(g.branches, g.chosen))]
    if isinstance(g, GRouted):  # Gr6
        return [(routed_send(g.sender, g.receiver, g.router, lbl),
                 GRoutedTransit(g.sender, g.receiver, g.router, lbl, g.branches))
                for lbl, _ in g.branches]
    return [(routed_recv(g.sender, g.receiver, g.router, g.chosen),  # Gr7: GRoutedTransit
             branch_for(g.branches, g.chosen))]


# ---------------------------------------------------------------------------
# Commuting rules, shared by the global and the local LTS
# ---------------------------------------------------------------------------


# Both helpers take the step function and its arguments rather than a
# closure, so each nesting level costs the interpreter no extra stack frame.


def _commute_all(node, allowed, steps, *args) -> list:
    """Gr4/Gr8, Lr8, Lr10/Lr11: an action enabled in every branch of `node`,
    and accepted by the subject filter `allowed`, fires under the prefix;
    every branch moves past it."""
    per_branch = [dict_of_steps(steps(cont, *args)) for _, cont in node.branches]
    out = []
    for label in per_branch[0]:
        if allowed(label) and all(label in branch for branch in per_branch[1:]):
            branches = tuple((lbl, per_branch[i][label])
                             for i, (lbl, _) in enumerate(node.branches))
            out.append((label, _with_branches(node, branches)))
    return out


def _commute_chosen(node, steps, *args) -> list:
    """Gr5/Gr9, Lr9: under an in-transit prefix only the chosen branch
    evolves, and the receiver of the pending message must not be the
    subject, which keeps its receive ordered first."""
    out = []
    for label, succ in steps(branch_for(node.branches, node.chosen), *args):
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


# ---------------------------------------------------------------------------
# Local LTS (Lr1..Lr11)
# ---------------------------------------------------------------------------


def local_steps(t: LocalType, self_role: Role) -> LocalSteps:
    """All one-step successors of a local type, labelled from the point of
    view of `self_role` (which fills in the endpoint the syntax leaves
    implicit)."""
    return _sorted_steps(_lsteps(t, self_role))


def _lsteps(t: LocalType, me: Role, canonical_key=canonicalize,
            stack: frozenset = frozenset()) -> LocalSteps:
    if isinstance(t, LRec):  # Lr3, with the same cycle cut as the global LTS
        # `canonical_key` maps equal canonical forms, and only those, to
        # equal keys: the canonical form itself, or its step-table id.
        key = canonical_key(t)
        if key in stack:
            return []
        return _lsteps(unfold_once(t), me, canonical_key, stack | {key})

    out = local_head_steps(t, me)
    if isinstance(t, (LSelect, LBranch)):
        # Lr10/Lr11: a role acting as router for interactions nested behind
        # its own direct communication may perform those routing actions
        # first, provided the direct peer is not the subject.
        out.extend(_commute_all(t, lambda label: label.via == me and label.subject != t.peer,
                                _lsteps, me, canonical_key, stack))
    elif isinstance(t, LRouter):
        # Lr8: causally unrelated actions commute past the routing prefix.
        out.extend(_commute_all(t, lambda label: label.subject not in (t.sender, t.receiver),
                                _lsteps, me, canonical_key, stack))
    elif isinstance(t, LRouterTransit):
        out.extend(_commute_chosen(t, _lsteps, me, canonical_key, stack))  # Lr9
    return out


def local_head_steps(node: LocalType, me: Role) -> LocalSteps:
    """The actions of one local node itself (Lr1, Lr2, Lr4-Lr7), in source
    branch order, labelled from the point of view of `me`.  `node` must not
    be a recursion binder: unfold it first.

    These are the edges of the endpoint state machine.  A router node offers
    its forwarding accept (Lr6); the in-transit node it leads to offers the
    matching delivery (Lr7)."""
    if isinstance(node, (LEnd, LVar)):
        return []
    if isinstance(node, LSelect):  # Lr1
        return [(direct_send(me, node.peer, lbl), cont) for lbl, cont in node.branches]
    if isinstance(node, LBranch):  # Lr2
        return [(direct_recv(node.peer, me, lbl), cont) for lbl, cont in node.branches]
    if isinstance(node, LRoutedSelect):  # Lr4
        return [(routed_send(me, node.peer, node.via, lbl), cont)
                for lbl, cont in node.branches]
    if isinstance(node, LRoutedBranch):  # Lr5
        return [(routed_recv(node.peer, me, node.via, lbl), cont)
                for lbl, cont in node.branches]
    if isinstance(node, LRouter):  # Lr6
        return [(routed_send(node.sender, node.receiver, me, lbl),
                 LRouterTransit(node.sender, node.receiver, lbl, node.branches))
                for lbl, _ in node.branches]
    if isinstance(node, LRouterTransit):  # Lr7
        return [(routed_recv(node.sender, node.receiver, me, node.chosen),
                 branch_for(node.branches, node.chosen))]
    raise InvalidType(f"not a local type: {type(node).__name__}")


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


RolePair = tuple[Role, Role]


@dataclass(frozen=True, slots=True)
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
        return Configuration(
            locals=tuple((r, canonicalize(t)) for r, t in self.locals),
            buffers=self.buffers,
        )

    def is_terminal(self) -> bool:
        return all(isinstance(t, LEnd) for _, t in self.locals) and \
            all(not content for _, content in self.buffers)

    def describe(self) -> str:
        from .core import pretty_local
        lines = [f"{r}: {pretty_local(t)}" for r, t in self.locals]
        lines += [f"w[{p}->{q}] = [{', '.join(m.name for m in content)}]"
                  for (p, q), content in self.buffers if content]
        return "\n".join(lines)


def config_steps(c: Configuration) -> list[tuple[ActionLabel, Configuration]]:
    """All one-step successors of a configuration.

    Sends append to the sender->receiver buffer; receives pop its head.
    Routed actions additionally require (and advance) the router's local type.
    """
    steps_by_role = {r: dict_of_steps(_lsteps(t, r)) for r, t in c.locals}
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
    """One LTS, compiled: canonical states interned as ids, each with its
    full edges (head and commuting rules) as `{label: successor id}`.

    With a `role` it is that role's local LTS (`_lsteps`, edges in rule
    order); without one it is the global LTS (`_gsteps` with the Gr rules in
    `disabled` switched off, edges in the label order of `global_steps`).
    A table lives as long as the search that made it; a search with other
    rules disabled makes its own.

    A state's edges are built the first time they are asked for.  Canonical
    equality is id equality, so a search over ids visits exactly the states
    a search over canonical types visits.  Every type met while building
    edges, successors and the recursion binders of the cycle cut alike, is
    remembered with its id, so none is canonicalised twice."""

    def __init__(self, role: Role | None = None, disabled: frozenset[str] = frozenset()):
        _check_rules(disabled)
        self.role = role
        self.disabled = disabled
        self.states: list[AnyType] = []  # canonical type of each id
        self._ids: dict[AnyType, int] = {}  # types met and canonical forms
        # The same objects are met again (a recursion binder is substituted
        # into its own body), so look them up by identity before hashing
        # them structurally; each entry keeps its object, and so its id, alive.
        self._met: dict[int, tuple[AnyType, int]] = {}
        self._edges: list[dict[ActionLabel, int] | None] = []

    def intern(self, t: AnyType) -> int:
        met = self._met.get(id(t))
        if met is not None:
            return met[1]
        sid = self._ids.get(t)
        if sid is None:
            key = canonicalize(t)
            sid = self._ids.get(key)
            if sid is None:
                sid = self._ids[key] = len(self.states)
                self.states.append(key)
                self._edges.append(None)
            self._ids[t] = sid
        self._met[id(t)] = (t, sid)
        return sid

    def edges(self, sid: int) -> dict[ActionLabel, int]:
        edges = self._edges[sid]
        if edges is None:
            state = self.states[sid]
            if self.role is None:
                steps = _sorted_steps(_gsteps(state, self.disabled, self.intern))
            else:
                steps = _lsteps(state, self.role, self.intern)
            edges = self._edges[sid] = {label: self.intern(succ)
                                        for label, succ in dict_of_steps(steps).items()}
        return edges


class CompiledConfigurations:
    """The configuration LTS over per-role step tables.

    A configuration is a key `(ids, contents)`: one local `StepTable` id per
    role and one buffer content per ordered role pair, both in the order of
    the `Configuration` it was compiled from.  Two keys are equal exactly
    when the canonical forms of their configurations are equal.  The tables
    live as long as this object."""

    def __init__(self, c: Configuration):
        self.roles = c.roles
        self.pairs = tuple(pair for pair, _ in c.buffers)
        self._pair_index = {pair: i for i, pair in enumerate(self.pairs)}
        self.tables = tuple(StepTable(r) for r in self.roles)
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
        ids, contents = key
        return Configuration(
            locals=tuple((table.role, table.states[sid]) for table, sid in zip(self.tables, ids)),
            buffers=tuple(zip(self.pairs, contents)))


def project_configuration(g: GlobalType, roles: tuple[Role, ...] | None = None) -> Configuration:
    """The projected configuration of a global type: every role's projection
    plus the buffer contents induced by in-transit markers.

    `roles` widens the participant set (dropped-out roles project to end),
    which keeps mid-trace configurations comparable with the initial one.
    """
    parts = sorted(set(roles) if roles else participants(g))
    locals_map = {r: project(g, r) for r in parts}
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
