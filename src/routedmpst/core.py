"""Core intermediate representation: roles, message labels, global and local
type grammars (including routed and in-transit constructs), LTS action labels,
and the canonical-form (`CanonicalIds`) and substitution machinery shared by
every other module.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Binder names produced by canonicalize; '%' cannot occur in a source identifier,
# so canonical binders never capture user-written recursion variables.
_CANON_VAR_PREFIX = "%"


class InvalidType(ValueError):
    """A type value violates a structural invariant."""


class NotRecursive(ValueError):
    """unfold_once applied to a non-recursive type."""


# Roles, message labels and action labels are the atoms every step table
# hashes.  Each computes its hash once, when it is built, into a `_hash`
# slot that equality, ordering and repr ignore.  The value is the hash the
# dataclass would compute from the fields, so sets and dicts of atoms
# iterate as they would without the cache.  A string's hash depends on the
# process's hash seed, so the cached hash must never cross processes:
# `__reduce__` rebuilds an atom from its fields, for pickle and for `copy`.


@dataclass(frozen=True, slots=True, order=True)
class Role:
    """A protocol participant, identified by a case-sensitive name."""

    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise InvalidType(f"invalid role name: {self.name!r}")
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Role, (self.name,)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, order=True)
class MsgLabel:
    """A message label plus its (inert) payload sorts.

    Payload sorts are carried verbatim from the source and never inspected by
    the transition semantics.
    """

    name: str
    payload_sorts: tuple[str, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise InvalidType(f"invalid message label: {self.name!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.payload_sorts)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return MsgLabel, (self.name, self.payload_sorts)

    def __str__(self) -> str:
        if self.payload_sorts:
            return f"{self.name}({', '.join(self.payload_sorts)})"
        return self.name


# ---------------------------------------------------------------------------
# Global types
# ---------------------------------------------------------------------------


class GlobalType:
    """Base class of the global type grammar."""

    __slots__ = ()


GBranches = tuple[tuple[MsgLabel, GlobalType], ...]


@dataclass(frozen=True, slots=True)
class GEnd(GlobalType):
    pass


@dataclass(frozen=True, slots=True)
class GVar(GlobalType):
    var: str


@dataclass(frozen=True, slots=True)
class GRec(GlobalType):
    var: str
    body: GlobalType


@dataclass(frozen=True, slots=True)
class GComm(GlobalType):
    """Direct communication: sender offers receiver a choice of labels."""

    sender: Role
    receiver: Role
    branches: GBranches


@dataclass(frozen=True, slots=True)
class GRouted(GlobalType):
    """Routed communication: the selection travels through the router role."""

    sender: Role
    receiver: Role
    router: Role
    branches: GBranches


@dataclass(frozen=True, slots=True)
class GTransit(GlobalType):
    """A direct message sent but not yet received (asynchrony marker)."""

    sender: Role
    receiver: Role
    chosen: MsgLabel
    branches: GBranches


@dataclass(frozen=True, slots=True)
class GRoutedTransit(GlobalType):
    """A routed message handed to the router but not yet delivered."""

    sender: Role
    receiver: Role
    router: Role
    chosen: MsgLabel
    branches: GBranches


# ---------------------------------------------------------------------------
# Local types
# ---------------------------------------------------------------------------


class LocalType:
    """Base class of the local (endpoint) type grammar."""

    __slots__ = ()


LBranches = tuple[tuple[MsgLabel, LocalType], ...]


@dataclass(frozen=True, slots=True)
class LEnd(LocalType):
    pass


@dataclass(frozen=True, slots=True)
class LVar(LocalType):
    var: str


@dataclass(frozen=True, slots=True)
class LRec(LocalType):
    var: str
    body: LocalType


@dataclass(frozen=True, slots=True)
class LSelect(LocalType):
    """Internal choice: send one of the labels to `peer`."""

    peer: Role
    branches: LBranches


@dataclass(frozen=True, slots=True)
class LBranch(LocalType):
    """External choice: receive one of the labels from `peer`."""

    peer: Role
    branches: LBranches


@dataclass(frozen=True, slots=True)
class LRoutedSelect(LocalType):
    """Send a selection intended for `peer`, delivered through `via`."""

    peer: Role
    via: Role
    branches: LBranches


@dataclass(frozen=True, slots=True)
class LRoutedBranch(LocalType):
    """Receive a selection made by `peer`, delivered through `via`."""

    peer: Role
    via: Role
    branches: LBranches


@dataclass(frozen=True, slots=True)
class LRouter(LocalType):
    """The router's view of forwarding a selection from sender to receiver."""

    sender: Role
    receiver: Role
    branches: LBranches


@dataclass(frozen=True, slots=True)
class LRouterTransit(LocalType):
    """Router holds a message accepted from sender, not yet delivered."""

    sender: Role
    receiver: Role
    chosen: MsgLabel
    branches: LBranches


AnyType = Union[GlobalType, LocalType]


def branch_for(branches, label: MsgLabel):
    for lbl, cont in branches:
        if lbl == label:
            return cont
    raise KeyError(label)


# ---------------------------------------------------------------------------
# Action labels
# ---------------------------------------------------------------------------

SEND = "!"
RECV = "?"


@dataclass(frozen=True, slots=True)
class ActionLabel:
    """One LTS action: a send or receive, direct or through a router.

    `via` is present exactly for routed actions.  The subject (the role that
    initiates the action) is the sender for sends and the receiver for
    receives, whether or not the action is routed.
    """

    direction: str  # SEND or RECV
    sender: Role
    receiver: Role
    msg: MsgLabel
    via: Role | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in (SEND, RECV):
            raise InvalidType(f"bad action direction: {self.direction!r}")
        if self.sender == self.receiver:
            raise InvalidType("action sender and receiver must differ")
        if self.via is not None and self.via in (self.sender, self.receiver):
            raise InvalidType("router of a routed action must differ from both endpoints")
        object.__setattr__(self, "_hash", hash((self.direction, self.sender, self.receiver,
                                                self.msg, self.via)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return ActionLabel, (self.direction, self.sender, self.receiver, self.msg, self.via)

    @property
    def routed(self) -> bool:
        return self.via is not None

    @property
    def subject(self) -> Role:
        return self.sender if self.direction == SEND else self.receiver

    def sort_key(self):
        kind = (0 if self.direction == SEND else 1) + (2 if self.routed else 0)
        return (kind, self.sender.name, self.receiver.name,
                self.via.name if self.via else "", self.msg.name)

    def __str__(self) -> str:
        base = f"{self.sender}->{self.receiver}{self.direction}{self.msg.name}"
        return f"{base} via {self.via}" if self.via else base


def direct_send(p: Role, q: Role, m: MsgLabel) -> ActionLabel:
    return ActionLabel(SEND, p, q, m)


def direct_recv(p: Role, q: Role, m: MsgLabel) -> ActionLabel:
    return ActionLabel(RECV, p, q, m)


def routed_send(p: Role, q: Role, s: Role, m: MsgLabel) -> ActionLabel:
    return ActionLabel(SEND, p, q, m, via=s)


def routed_recv(p: Role, q: Role, s: Role, m: MsgLabel) -> ActionLabel:
    return ActionLabel(RECV, p, q, m, via=s)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def _node_branches(t: AnyType):
    """Branches of a node, or None for leaf/recursion nodes."""
    if isinstance(t, (GComm, GRouted, GTransit, GRoutedTransit,
                      LSelect, LBranch, LRoutedSelect, LRoutedBranch,
                      LRouter, LRouterTransit)):
        return t.branches
    return None


def _with_branches(t: AnyType, branches):
    """Rebuild a branching node with replaced branch tuple."""
    if isinstance(t, GComm):
        return GComm(t.sender, t.receiver, branches)
    if isinstance(t, LRouter):
        return LRouter(t.sender, t.receiver, branches)
    if isinstance(t, GRouted):
        return GRouted(t.sender, t.receiver, t.router, branches)
    if isinstance(t, GTransit):
        return GTransit(t.sender, t.receiver, t.chosen, branches)
    if isinstance(t, GRoutedTransit):
        return GRoutedTransit(t.sender, t.receiver, t.router, t.chosen, branches)
    if isinstance(t, LSelect):
        return LSelect(t.peer, branches)
    if isinstance(t, LBranch):
        return LBranch(t.peer, branches)
    if isinstance(t, LRoutedSelect):
        return LRoutedSelect(t.peer, t.via, branches)
    if isinstance(t, LRoutedBranch):
        return LRoutedBranch(t.peer, t.via, branches)
    if isinstance(t, LRouterTransit):
        return LRouterTransit(t.sender, t.receiver, t.chosen, branches)
    raise TypeError(type(t))


def validate(t: AnyType, *, allow_free: bool = False) -> None:
    """Check the structural invariants; raise InvalidType on violation.

    With allow_free=True unbound recursion variables are tolerated (needed
    when manipulating open subterms, e.g. under substitution).
    """
    _validate(t, frozenset(), allow_free)


# The recursive workers below are module-level functions rather than nested
# closures: a closure that calls itself is a reference cycle, which every
# call would leave behind for the cyclic garbage collector.


def _validate(u: AnyType, bound: frozenset[str], allow_free: bool) -> None:
    if isinstance(u, (GEnd, LEnd)):
        return
    if isinstance(u, (GVar, LVar)):
        if not allow_free and u.var not in bound:
            raise InvalidType(f"unbound recursion variable {u.var!r}")
        return
    if isinstance(u, (GRec, LRec)):
        body = u.body
        # Contractiveness: stripping nested binders must not expose a bare
        # variable (rules out degenerate loops with no communication).
        probe = body
        while isinstance(probe, (GRec, LRec)):
            probe = probe.body
        if isinstance(probe, (GVar, LVar)):
            raise InvalidType(f"non-contractive recursion at binder {u.var!r}")
        _validate(body, bound | {u.var}, allow_free)
        return
    branches = _node_branches(u)
    if branches is None:
        raise InvalidType(f"unknown node {type(u).__name__}")
    if not branches:
        raise InvalidType(f"{type(u).__name__} with empty branch set")
    names = [lbl.name for lbl, _ in branches]
    if len(set(names)) != len(names):
        raise InvalidType(f"duplicate branch labels in {type(u).__name__}: {names}")
    if isinstance(u, (GComm, GTransit)):
        if u.sender == u.receiver:
            raise InvalidType("communication endpoints must differ")
    if isinstance(u, (GRouted, GRoutedTransit)):
        if len({u.sender, u.receiver, u.router}) != 3:
            raise InvalidType("routed communication roles must be pairwise distinct")
    if isinstance(u, (LRoutedSelect, LRoutedBranch)):
        if u.peer == u.via:
            raise InvalidType("routed endpoint and router must differ")
    if isinstance(u, (LRouter, LRouterTransit)):
        if u.sender == u.receiver:
            raise InvalidType("routed endpoints must differ")
    if isinstance(u, (GTransit, GRoutedTransit, LRouterTransit)):
        if u.chosen.name not in names:
            raise InvalidType(f"chosen label {u.chosen.name!r} not among branches")
    for _, cont in branches:
        _validate(cont, bound, allow_free)


def free_vars(t: AnyType) -> frozenset[str]:
    """The free variables of `t`, computed bottom up in one walk."""
    if isinstance(t, (GEnd, LEnd)):
        return frozenset()
    if isinstance(t, (GVar, LVar)):
        return frozenset((t.var,))
    if isinstance(t, (GRec, LRec)):
        return free_vars(t.body) - {t.var}
    return frozenset().union(*(free_vars(c) for _, c in _node_branches(t)))


def is_closed(t: AnyType) -> bool:
    return not free_vars(t)


def substitute(t: AnyType, var: str, replacement: AnyType) -> AnyType:
    """Substitute `replacement` for free occurrences of `var` in `t`.

    Shadowing binders are respected; the replacement is expected to be closed
    (always the case for recursion unfolding), so no capture can occur.  A
    subterm that does not change is returned as it is, not copied."""
    if isinstance(t, (GEnd, LEnd)):
        return t
    if isinstance(t, (GVar, LVar)):
        return replacement if t.var == var else t
    if isinstance(t, (GRec, LRec)):
        body = t.body if t.var == var else substitute(t.body, var, replacement)
        return t if body is t.body else type(t)(t.var, body)
    branches = tuple((lbl, substitute(c, var, replacement)) for lbl, c in _node_branches(t))
    if all(new is old for (_, new), (_, old) in zip(branches, _node_branches(t))):
        return t
    return _with_branches(t, branches)


def unfold_once(t: AnyType) -> AnyType:
    """One step of recursion unfolding: body with the binder substituted in."""
    if isinstance(t, (GRec, LRec)):
        return substitute(t.body, t.var, t)
    raise NotRecursive(f"cannot unfold non-recursive {type(t).__name__}")


def canonicalize(t: AnyType) -> AnyType:
    """Alpha-rename binders to depth indices, drop unused binders and order
    branch maps lexicographically by label name.

    Two types are structurally equal exactly when their canonical forms are
    equal; the output is idempotent under re-canonicalisation.  Built from
    the keys of a fresh `CanonicalIds`; InvalidType unless `t` is closed.
    """
    validate(t)
    ids = CanonicalIds()
    return ids.form(ids.of(t))


_NO_VARS: frozenset[str] = frozenset()


class CanonicalIds:
    """Hash-consed canonical identities: `of(t)` gives two closed types the
    same id exactly when their canonical forms are equal, without building
    either form.

    A key is one node of a canonical form with its children replaced by
    their ids, so each key is hashed shallowly.  One walk, memoised by object
    identity, records the free variables of every node and the id of every
    closed one, keyed as the root of its own canonical form.  An open node
    (under a used binder) is keyed as a node of the canonical form of its
    nearest closed ancestor, binders named `%<level>` below it;
    its key is never memoised, since one object can sit under different
    binders.  A closed binder is named at level 0 and an open one at a level
    above 0, so an open key never equals a closed one.  Each memo entry
    keeps its object, and so its identity, alive as long as the interner;
    `unfold` unfolds each binder object once, so its callers share subterms.
    `form(sid)` rebuilds the canonical form an id stands for from its keys."""

    def __init__(self) -> None:
        self._ids: dict[AnyType, int] = {}
        self._keys: list[AnyType] = []  # id -> key
        self._met: dict[int, tuple[AnyType, frozenset[str], int | None]] = {}
        self._unfolded: dict[int, tuple[AnyType, AnyType]] = {}

    def of(self, t: AnyType) -> int:
        _, fv, sid = self._met.get(id(t)) or self._walk(t)
        if sid is None:
            raise ValueError(f"canonical ids need a closed type; free: {sorted(fv)}")
        return sid

    def free_vars(self, t: AnyType) -> frozenset[str]:
        return (self._met.get(id(t)) or self._walk(t))[1]

    def unfold(self, t: AnyType) -> AnyType:
        """`unfold_once(t)`, built once per binder object."""
        met = self._unfolded.get(id(t))
        if met is None:
            met = self._unfolded[id(t)] = (t, unfold_once(t))
        return met[1]

    def _intern(self, key: AnyType) -> int:
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return sid

    # `form`, `_walk` and `_open` loop over branches instead of using generator
    # expressions, so each takes one stack frame per nesting level.

    def form(self, sid: int, env: dict[str, str] | None = None, depth: int = 0) -> AnyType:
        """The canonical form of the closed id `sid`, binders named by depth
        from the root.  A closed sub-key names its binders from level 0 again,
        so `env` maps the names of a key to those of the form at `depth`."""
        key = self._keys[sid]
        if isinstance(key, (GEnd, LEnd)):
            return key
        if isinstance(key, (GVar, LVar)):
            return type(key)(env[key.var])
        if isinstance(key, (GRec, LRec)):
            name = f"{_CANON_VAR_PREFIX}{depth}"
            return type(key)(name, self.form(key.body, {**(env or {}), key.var: name}, depth + 1))
        branches = []
        for lbl, c in _node_branches(key):
            branches.append((lbl, self.form(c, env, depth)))
        return _with_branches(key, tuple(branches))

    def _walk(self, t: AnyType) -> tuple[AnyType, frozenset[str], int | None]:
        met = self._met
        sid = None
        if isinstance(t, (GEnd, LEnd)):
            fv, sid = _NO_VARS, self._intern(t)
        elif isinstance(t, (GVar, LVar)):
            fv = frozenset((t.var,))
        elif isinstance(t, (GRec, LRec)):
            _, inner, body_id = met.get(id(t.body)) or self._walk(t.body)
            fv = inner - {t.var}
            if t.var not in inner:
                sid = body_id
            elif not fv:
                name = f"{_CANON_VAR_PREFIX}0"
                sid = self._intern(type(t)(name, self._open(t.body, {t.var: name}, 1)))
        else:
            fv, children = _NO_VARS, []
            for lbl, c in _node_branches(t):
                _, child_fv, child_id = met.get(id(c)) or self._walk(c)
                fv = fv | child_fv
                children.append((lbl, child_id))
            if not fv:
                children.sort(key=lambda item: item[0].name)
                sid = self._intern(_with_branches(t, tuple(children)))
        entry = met[id(t)] = (t, fv, sid)
        return entry

    def _open(self, u: AnyType, env: dict[str, str], depth: int) -> int:
        """The id of `u`'s key under `env`, which gives each variable bound
        above `u`, up to the nearest closed ancestor, its canonical name."""
        sid = self._met[id(u)][2]
        if sid is not None:
            return sid
        if isinstance(u, (GVar, LVar)):
            return self._intern(type(u)(env[u.var]))
        if isinstance(u, (GRec, LRec)):
            if u.var not in self._met[id(u.body)][1]:
                return self._open(u.body, env, depth)
            name = f"{_CANON_VAR_PREFIX}{depth}"
            return self._intern(type(u)(name, self._open(u.body, {**env, u.var: name},
                                                         depth + 1)))
        children = []
        for lbl, c in _node_branches(u):
            children.append((lbl, self._open(c, env, depth)))
        children.sort(key=lambda item: item[0].name)
        return self._intern(_with_branches(u, tuple(children)))


def participants(g: GlobalType) -> frozenset[Role]:
    """The set of roles taking part in a global type (one iterative walk, so
    the depth of `g` is not bounded by the recursion limit)."""
    roles: set[Role] = set()
    todo = [g]
    while todo:
        u = todo.pop()
        if isinstance(u, GRec):
            todo.append(u.body)
            continue
        if isinstance(u, (GComm, GTransit)):
            roles.add(u.sender)
            roles.add(u.receiver)
        elif isinstance(u, (GRouted, GRoutedTransit)):
            roles.update((u.sender, u.receiver, u.router))
        elif isinstance(u, (GEnd, GVar)):
            continue
        else:
            raise InvalidType(f"not a global type: {type(u).__name__}")
        todo.extend(cont for _, cont in u.branches)
    return frozenset(roles)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def _fmt_branches(branches, show, indent: int) -> str:
    if len(branches) == 1:
        lbl, cont = branches[0]
        return f"{lbl} . {show(cont, indent)}"
    pad = "  " * (indent + 1)
    inner = ",\n".join(f"{pad}{lbl}: {show(cont, indent + 1)}" for lbl, cont in branches)
    return "{\n" + inner + "\n" + "  " * indent + "}"


def pretty_global(g: GlobalType, indent: int = 0) -> str:
    return _show_global(g, indent)


def _show_global(u: GlobalType, ind: int) -> str:
    if isinstance(u, GEnd):
        return "end"
    if isinstance(u, GVar):
        return u.var
    if isinstance(u, GRec):
        return f"rec {u.var} . {_show_global(u.body, ind)}"
    if isinstance(u, GComm):
        return f"{u.sender}->{u.receiver} " + _fmt_branches(u.branches, _show_global, ind)
    if isinstance(u, GRouted):
        return (f"{u.sender}->{u.receiver} via {u.router} "
                + _fmt_branches(u.branches, _show_global, ind))
    if isinstance(u, GTransit):
        return (f"{u.sender}->{u.receiver} [{u.chosen.name} in flight] "
                + _fmt_branches(u.branches, _show_global, ind))
    if isinstance(u, GRoutedTransit):
        return (f"{u.sender}->{u.receiver} via {u.router} [{u.chosen.name} in flight] "
                + _fmt_branches(u.branches, _show_global, ind))
    raise InvalidType(type(u).__name__)


def pretty_local(t: LocalType, indent: int = 0) -> str:
    return _show_local(t, indent)


def _show_local(u: LocalType, ind: int) -> str:
    if isinstance(u, LEnd):
        return "end"
    if isinstance(u, LVar):
        return u.var
    if isinstance(u, LRec):
        return f"rec {u.var} . {_show_local(u.body, ind)}"
    if isinstance(u, LSelect):
        return f"{u.peer}!" + _fmt_branches(u.branches, _show_local, ind)
    if isinstance(u, LBranch):
        return f"{u.peer}?" + _fmt_branches(u.branches, _show_local, ind)
    if isinstance(u, LRoutedSelect):
        return f"{u.peer}(via {u.via})!" + _fmt_branches(u.branches, _show_local, ind)
    if isinstance(u, LRoutedBranch):
        return f"{u.peer}(via {u.via})?" + _fmt_branches(u.branches, _show_local, ind)
    if isinstance(u, LRouter):
        return f"route {u.sender}->{u.receiver} " + _fmt_branches(u.branches, _show_local, ind)
    if isinstance(u, LRouterTransit):
        return (f"route {u.sender}->{u.receiver} [{u.chosen.name} in flight] "
                + _fmt_branches(u.branches, _show_local, ind))
    raise InvalidType(type(u).__name__)
