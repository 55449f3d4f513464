"""Core intermediate representation: roles, message labels, global and local
type grammars (including routed and in-transit constructs), LTS action labels,
and the canonical-form machinery (`CanonicalIds`, which also unfolds
recursion on ids) shared by every other module.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter, itemgetter
from types import CodeType, FunctionType

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Binder names produced by canonicalize; '%' cannot occur in a source identifier,
# so canonical binders never capture user-written recursion variables.
_CANON_VAR_PREFIX = "%"


class InvalidType(ValueError):
    """A type value violates a structural invariant."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_MISSING = object()
_object_setattr = object.__setattr__  # the generated `__init__` assigns with this


class Field:
    """A record field's options, given as its class attribute: whether
    comparison (`==` and hash) uses it."""

    __slots__ = ("name", "default", "compare")

    def __init__(self, *, compare: bool = True):
        self.name, self.default, self.compare = "", _MISSING, compare


@cache
def _template(kind: str, n: int) -> CodeType:
    """The code of method `kind` over the fields `_f0`..`_f<n-1>`, compiled
    once per (kind, n).  Kind `__post_init__` is an `__init__` that ends by
    calling `self.__post_init__()`."""
    fs = [f"_f{i}" for i in range(n)]

    def tup(obj: str) -> str:
        return "(" + "".join(f"{obj}.{f}," for f in fs) + ")"
    if kind == "__hash__":
        src = f"def __hash__(self):\n return hash({tup('self')})"
    elif kind == "__eq__":
        src = (f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
               f"  return {tup('self')} == {tup('other')}\n return NotImplemented")
    else:
        body = "".join(f"\n _object_setattr(self, {f!r}, {f})" for f in fs)
        body += "\n self.__post_init__()" if kind == "__post_init__" else "\n pass"
        src = f"def __init__(self{''.join(', ' + f for f in fs)}):{body}"
    module = compile(src, f"<record {kind}>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _method(cls: type, kind: str, names: list[str], defaults: tuple = ()) -> FunctionType:
    """`cls`'s own copy of a template, its placeholders renamed to `names`."""
    code = _template(kind, len(names))
    rename = {f"_f{i}": name for i, name in enumerate(names)}

    def renamed(items: tuple) -> tuple:
        return tuple(rename.get(x, x) if type(x) is str else x for x in items)
    code = code.replace(co_names=renamed(code.co_names), co_varnames=renamed(code.co_varnames),
                        co_consts=renamed(code.co_consts))
    fn = FunctionType(code, globals(), code.co_name, defaults)
    fn.__qualname__ = f"{cls.__qualname__}.{code.co_name}"  # names it in a TypeError
    return fn


# `repr` and `__reduce__` of records and atoms alike: over `__match_args__`,
# which names every field.


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({shown})"


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def record(cls: type | None = None, /, *, slots: bool = False):
    """Class decorator: an immutable record of the annotated fields.

    Keeps of `dataclass(frozen=True)` with the same `slots`: fields in
    annotation order, a class attribute as a default or a `Field`;
    `__init__` by position or keyword, then `__post_init__` if defined;
    `__repr__`; `==` and hash on the tuple of compared fields, between
    instances of exactly one class; `__match_args__`; a frozen guard (a
    plain `AttributeError`); with `slots`, a rebuilt class slotted by its
    fields; and every method the class body defines.  Pickle and `copy`
    call the class with the fields.  Left out: ordering,
    `dataclasses.fields`/`replace`/`asdict`/`is_dataclass`, default
    factories, fields left out of `__init__` or `repr`,
    `ClassVar`/`InitVar`/`KW_ONLY`, mutable records, the generated
    `__doc__` and `repr`'s recursion guard.

    No source is compiled per class.  `__init__`, `==` and hash are the
    class's own copies of a template code object per (method, field count),
    renamed by `CodeType.replace`: the straight-line code `dataclass`
    generates, as fast.  `repr`, the guard and `__reduce__` are never hot,
    so they are shared generic functions."""
    if cls is None:
        return lambda cls: record(cls, slots=slots)
    fields = []
    for name in cls.__dict__.get("__annotations__", ()):
        value = cls.__dict__.get(name, _MISSING)
        f = value if isinstance(value, Field) else Field()
        if f is not value:  # a plain class attribute is the default
            f.default = value
        elif not slots:  # a rebuilt slotted class drops it anyway
            delattr(cls, name)
        f.name = name
        fields.append(f)
    if slots:
        names = {f.name for f in fields} | {"__dict__", "__weakref__"}
        body = {k: v for k, v in cls.__dict__.items() if k not in names}
        body.update(__slots__=tuple(f.name for f in fields), __qualname__=cls.__qualname__)
        cls = type(cls)(cls.__name__, cls.__bases__, body)
    names = [f.name for f in fields]
    compared = [f.name for f in fields if f.compare]
    methods = {
        "__init__": _method(cls, "__post_init__" if hasattr(cls, "__post_init__") else "__init__",
                            names, tuple(f.default for f in fields if f.default is not _MISSING)),
        "__repr__": _repr, "__eq__": _method(cls, "__eq__", compared),
        "__hash__": _method(cls, "__hash__", compared),
        "__setattr__": _frozen, "__delattr__": _frozen, "__reduce__": _reduce,
        "__match_args__": tuple(names), "__record_fields__": tuple(fields),
    }
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


# Roles, message labels and action labels are the atoms every step memo
# hashes.  Each is a `tuple` of its fields, so `==`, hash and ordering run in
# C: the hash is the hash of the field tuple, the one every record computes,
# so sets and dicts of atoms iterate as records of the same fields would.
# An atom equals a plain tuple of the same fields.
# `__new__` validates, a field is read by `property(itemgetter(i))`, and
# pickle and `copy` rebuild an atom through its class from its fields.


class _Atom(tuple):
    __slots__ = ()
    __repr__ = _repr
    __reduce__ = _reduce


class Role(_Atom):
    """A protocol participant, identified by a case-sensitive name."""

    __slots__ = ()
    __match_args__ = ("name",)
    name = property(itemgetter(0))

    def __new__(cls, name: str):
        if not _IDENT_RE.match(name):
            raise InvalidType(f"invalid role name: {name!r}")
        return tuple.__new__(cls, (name,))

    def __str__(self) -> str:
        return self.name


class MsgLabel(_Atom):
    """A message label plus its (inert) payload sorts.

    Payload sorts are carried verbatim from the source and never inspected by
    the transition semantics.
    """

    __slots__ = ()
    __match_args__ = ("name", "payload_sorts")
    name = property(itemgetter(0))
    payload_sorts = property(itemgetter(1))

    def __new__(cls, name: str, payload_sorts: tuple[str, ...] = ()):
        if not _IDENT_RE.match(name):
            raise InvalidType(f"invalid message label: {name!r}")
        return tuple.__new__(cls, (name, payload_sorts))

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


@record(slots=True)
class GEnd(GlobalType):
    pass


@record(slots=True)
class GVar(GlobalType):
    var: str


@record(slots=True)
class GRec(GlobalType):
    var: str
    body: GlobalType


@record(slots=True)
class GComm(GlobalType):
    """Direct communication: sender offers receiver a choice of labels."""

    sender: Role
    receiver: Role
    branches: GBranches


@record(slots=True)
class GRouted(GlobalType):
    """Routed communication: the selection travels through the router role."""

    sender: Role
    receiver: Role
    router: Role
    branches: GBranches


@record(slots=True)
class GTransit(GlobalType):
    """A direct message sent but not yet received (asynchrony marker)."""

    sender: Role
    receiver: Role
    chosen: MsgLabel
    branches: GBranches


@record(slots=True)
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


@record(slots=True)
class LEnd(LocalType):
    pass


@record(slots=True)
class LVar(LocalType):
    var: str


@record(slots=True)
class LRec(LocalType):
    var: str
    body: LocalType


@record(slots=True)
class LSelect(LocalType):
    """Internal choice: send one of the labels to `peer`."""

    peer: Role
    branches: LBranches


@record(slots=True)
class LBranch(LocalType):
    """External choice: receive one of the labels from `peer`."""

    peer: Role
    branches: LBranches


@record(slots=True)
class LRoutedSelect(LocalType):
    """Send a selection intended for `peer`, delivered through `via`."""

    peer: Role
    via: Role
    branches: LBranches


@record(slots=True)
class LRoutedBranch(LocalType):
    """Receive a selection made by `peer`, delivered through `via`."""

    peer: Role
    via: Role
    branches: LBranches


@record(slots=True)
class LRouter(LocalType):
    """The router's view of forwarding a selection from sender to receiver."""

    sender: Role
    receiver: Role
    branches: LBranches


@record(slots=True)
class LRouterTransit(LocalType):
    """Router holds a message accepted from sender, not yet delivered."""

    sender: Role
    receiver: Role
    chosen: MsgLabel
    branches: LBranches


AnyType = GlobalType | LocalType


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


def _unordered(self, other):
    return NotImplemented


class ActionLabel(_Atom):
    """One LTS action: a send or receive, direct or through a router.

    `via` is present exactly for routed actions.  The subject (the role that
    initiates the action) is the sender for sends and the receiver for
    receives, whether or not the action is routed.  Labels are not ordered:
    `sort_key` orders them.
    """

    __slots__ = ()
    __match_args__ = ("direction", "sender", "receiver", "msg", "via")
    direction = property(itemgetter(0))  # SEND or RECV
    sender = property(itemgetter(1))
    receiver = property(itemgetter(2))
    msg = property(itemgetter(3))
    via = property(itemgetter(4))
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __new__(cls, direction: str, sender: Role, receiver: Role, msg: MsgLabel,
                via: Role | None = None):
        if direction not in (SEND, RECV):
            raise InvalidType(f"bad action direction: {direction!r}")
        if sender == receiver:
            raise InvalidType("action sender and receiver must differ")
        if via is not None and via in (sender, receiver):
            raise InvalidType("router of a routed action must differ from both endpoints")
        return tuple.__new__(cls, (direction, sender, receiver, msg, via))

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


_NO_VARS: frozenset[str] = frozenset()


# Each branching node class and how to rebuild one of its nodes with another
# branch tuple.  Walkers read `.branches` once leaves and binders are ruled
# out; `validate` rejects a node whose class is not a key of `_HEAD_RULE`.
_REBUILD = {
    GComm: lambda t, branches: GComm(t.sender, t.receiver, branches),
    GRouted: lambda t, branches: GRouted(t.sender, t.receiver, t.router, branches),
    GTransit: lambda t, branches: GTransit(t.sender, t.receiver, t.chosen, branches),
    GRoutedTransit: lambda t, branches: GRoutedTransit(t.sender, t.receiver, t.router,
                                                       t.chosen, branches),
    LSelect: lambda t, branches: LSelect(t.peer, branches),
    LBranch: lambda t, branches: LBranch(t.peer, branches),
    LRoutedSelect: lambda t, branches: LRoutedSelect(t.peer, t.via, branches),
    LRoutedBranch: lambda t, branches: LRoutedBranch(t.peer, t.via, branches),
    LRouter: lambda t, branches: LRouter(t.sender, t.receiver, branches),
    LRouterTransit: lambda t, branches: LRouterTransit(t.sender, t.receiver, t.chosen,
                                                       branches),
}


def _with_branches(t: AnyType, branches):
    """Rebuild a branching node with replaced branch tuple."""
    return _REBUILD[type(t)](t, branches)


def validate(t: AnyType, *, allow_free: bool = False) -> None:
    """Check the structural invariants; raise InvalidType on violation.

    With allow_free=True unbound recursion variables are tolerated (needed
    when manipulating open subterms, e.g. under substitution).
    """
    _validate(t, frozenset(), allow_free)


# The recursive workers below are module-level functions rather than nested
# closures: a closure that calls itself is a reference cycle, which every
# call would leave behind for the cyclic garbage collector.  Each reads a
# node's class once and tests it by identity, so a subclass of a node class
# is an unknown node; `_validate` follows a node's last child in a loop.

# What `validate` checks of a branching node besides its branches, by class:
# the roles that must be pairwise distinct, the message if they are not, and
# whether its chosen label must name a branch.
_HEAD_RULE = {
    cls: (attrgetter(*roles) if roles else None, clash, "chosen" in cls.__match_args__)
    for classes, roles, clash in (
        ((GComm, GTransit), ("sender", "receiver"), "communication endpoints must differ"),
        ((GRouted, GRoutedTransit), ("sender", "receiver", "router"),
         "routed communication roles must be pairwise distinct"),
        ((LSelect, LBranch), (), ""),
        ((LRoutedSelect, LRoutedBranch), ("peer", "via"), "routed endpoint and router must differ"),
        ((LRouter, LRouterTransit), ("sender", "receiver"), "routed endpoints must differ"))
    for cls in classes}


def _validate(u: AnyType, bound: frozenset[str], allow_free: bool) -> None:
    while True:
        kind = type(u)
        if kind is GEnd or kind is LEnd:
            return
        if kind is GVar or kind is LVar:
            if not allow_free and u.var not in bound:
                raise InvalidType(f"unbound recursion variable {u.var!r}")
            return
        if kind is GRec or kind is LRec:
            # Contractiveness: stripping nested binders must not expose a
            # bare variable (rules out degenerate loops with no communication).
            probe = u.body
            while isinstance(probe, (GRec, LRec)):
                probe = probe.body
            if isinstance(probe, (GVar, LVar)):
                raise InvalidType(f"non-contractive recursion at binder {u.var!r}")
            bound, u = bound | {u.var}, u.body
            continue
        rule = _HEAD_RULE.get(kind)
        if rule is None:
            raise InvalidType(f"unknown node {kind.__name__}")
        branches = u.branches
        if len(branches) != 1:  # one branch needs no label list
            if not branches:
                raise InvalidType(f"{kind.__name__} with empty branch set")
            names = [lbl.name for lbl, _ in branches]
            if len(set(names)) != len(names):
                raise InvalidType(f"duplicate branch labels in {kind.__name__}: {names}")
        distinct, clash, chosen = rule
        if distinct is not None:
            roles = distinct(u)
            if len(set(roles)) != len(roles):
                raise InvalidType(clash)
        if chosen and u.chosen.name not in [lbl.name for lbl, _ in branches]:
            raise InvalidType(f"chosen label {u.chosen.name!r} not among branches")
        for _, cont in branches[:-1]:
            _validate(cont, bound, allow_free)
        u = branches[-1][1]


def free_vars(t: AnyType) -> frozenset[str]:
    """The free variables of `t`, computed bottom up in one walk."""
    kind = type(t)
    if kind is GEnd or kind is LEnd:
        return _NO_VARS
    if kind is GVar or kind is LVar:
        return frozenset((t.var,))
    if kind is GRec or kind is LRec:
        return free_vars(t.body) - {t.var}
    out = _NO_VARS
    for _, c in t.branches:
        out = out | free_vars(c)
    return out


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


_NO_LEVELS: frozenset[int] = frozenset()
_LEVEL_0 = frozenset((0,))


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
    keeps its object, and so its identity, alive as long as the interner.
    Recursion unfolds on ids only: `unfold_id` unfolds each binder id once,
    by substitution over keys, with no type built.  `form(sid)` rebuilds the
    canonical form an id stands for from its keys, `keys[sid]` is the key
    node of an id, and `key_id` interns one: a key node built from the
    children of others gets its id without a walk."""

    def __init__(self) -> None:
        self._ids: dict[AnyType, int] = {}
        self.keys: list[AnyType] = []  # id -> key node
        self._met: dict[int, tuple[AnyType, frozenset[str], int | None]] = {}
        self._unfolded_ids: dict[int, int] = {}
        self._levels: dict[int, frozenset[int]] = {}  # id -> its free levels

    def of(self, t: AnyType) -> int:
        _, fv, sid = self._met.get(id(t)) or self._walk(t)
        if sid is None:
            raise ValueError(f"canonical ids need a closed type; free: {sorted(fv)}")
        return sid

    def free_vars(self, t: AnyType) -> frozenset[str]:
        return (self._met.get(id(t)) or self._walk(t))[1]

    def unfold_id(self, sid: int) -> int:
        """The id of the unfolding of the binder whose id is `sid`, made
        once, by substituting `sid` for level 0 in its body's keys.  Only
        the keys on a path to a use of a binder change; a closed sub-key is
        kept as it is."""
        out = self._unfolded_ids.get(sid)
        if out is None:
            out = self._unfolded_ids[sid] = self._subst(self.keys[sid].body, 1, 1, sid, {})
        return out

    def key_id(self, key: AnyType) -> int:
        """The id of a key node (a node whose children are ids, branches
        sorted by label name), interned if new."""
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return sid

    # `form`, `_walk`, `_open`, `_subst` and `free_levels` read a node's class
    # once and loop over branches instead of using generator expressions, so
    # each takes one stack frame per nesting level; in `_walk` a single
    # branch needs no list and no sort.

    def form(self, sid: int, env: dict[str, str] | None = None, depth: int = 0) -> AnyType:
        """The canonical form of the closed id `sid`, binders named by depth
        from the root.  A closed sub-key names its binders from level 0 again,
        so `env` maps the names of a key to those of the form at `depth`."""
        key = self.keys[sid]
        kind = type(key)
        if kind is GEnd or kind is LEnd:
            return key
        if kind is GVar or kind is LVar:
            return kind(env[key.var])
        if kind is GRec or kind is LRec:
            name = f"{_CANON_VAR_PREFIX}{depth}"
            return kind(name, self.form(key.body, {**(env or {}), key.var: name}, depth + 1))
        branches = []
        for lbl, c in key.branches:
            branches.append((lbl, self.form(c, env, depth)))
        return _with_branches(key, tuple(branches))

    def _walk(self, t: AnyType) -> tuple[AnyType, frozenset[str], int | None]:
        met = self._met
        sid = None
        kind = type(t)
        if kind is GEnd or kind is LEnd:
            fv, sid = _NO_VARS, self.key_id(t)
        elif kind is GVar or kind is LVar:
            fv = frozenset((t.var,))
        elif kind is GRec or kind is LRec:
            _, inner, body_id = met.get(id(t.body)) or self._walk(t.body)
            fv = inner - {t.var}
            if t.var not in inner:
                sid = body_id
            elif not fv:
                name = f"{_CANON_VAR_PREFIX}0"
                sid = self.key_id(kind(name, self._open(t.body, {t.var: name}, 1)))
        elif len(t.branches) == 1:
            lbl, c = t.branches[0]
            _, fv, child_id = met.get(id(c)) or self._walk(c)
            if not fv:
                sid = self.key_id(_with_branches(t, ((lbl, child_id),)))
        else:
            fv, children = _NO_VARS, []
            for lbl, c in t.branches:
                _, child_fv, child_id = met.get(id(c)) or self._walk(c)
                fv = fv | child_fv
                children.append((lbl, child_id))
            if not fv:
                children.sort(key=_by_label)
                sid = self.key_id(_with_branches(t, tuple(children)))
        entry = met[id(t)] = (t, fv, sid)
        return entry

    def _open(self, u: AnyType, env: dict[str, str], depth: int) -> int:
        """The id of `u`'s key under `env`, which gives each variable bound
        above `u`, up to the nearest closed ancestor, its canonical name."""
        sid = self._met[id(u)][2]
        if sid is not None:
            return sid
        kind = type(u)
        if kind is GVar or kind is LVar:
            return self.key_id(kind(env[u.var]))
        if kind is GRec or kind is LRec:
            if u.var not in self._met[id(u.body)][1]:
                return self._open(u.body, env, depth)
            name = f"{_CANON_VAR_PREFIX}{depth}"
            return self.key_id(kind(name, self._open(u.body, {**env, u.var: name}, depth + 1)))
        children = []
        for lbl, c in u.branches:
            children.append((lbl, self._open(c, env, depth)))
        children.sort(key=_by_label)
        return self.key_id(_with_branches(u, tuple(children)))

    def _subst(self, x: int, c: int, d: int, sid: int, memo: dict) -> int:
        """The id of the key `x`, `d` binders below the binder `sid`, with
        `sid` for level 0 and every other level lowered by `c`, the depth of
        its nearest ancestor that the substitution closes.  A key whose one
        free level is 0 is such an ancestor: its binders renumber from 0.
        Substitution never leaves a binder unused, so none is dropped."""
        levels = self.free_levels(x)
        if not levels:
            return x
        if levels == _LEVEL_0:
            c = d
        out = memo.get((x, c, d))
        if out is not None:
            return out
        key = self.keys[x]
        kind = type(key)
        if kind is GVar or kind is LVar:
            level = int(key.var[1:])
            out = sid if level == 0 else self.key_id(kind(f"{_CANON_VAR_PREFIX}{level - c}"))
        elif kind is GRec or kind is LRec:
            name = f"{_CANON_VAR_PREFIX}{int(key.var[1:]) - c}"
            out = self.key_id(kind(name, self._subst(key.body, c, d + 1, sid, memo)))
        else:
            branches = []
            for lbl, child in key.branches:
                branches.append((lbl, self._subst(child, c, d, sid, memo)))
            out = self.key_id(_with_branches(key, tuple(branches)))
        memo[(x, c, d)] = out
        return out

    def free_levels(self, x: int) -> frozenset[int]:
        """The free levels of the key `x`: each `j` of a variable `%j` free
        in it.  Made on first use, since open keys are also interned by
        `key_id`, and kept for the interner's life."""
        out = self._levels.get(x)
        if out is None:
            key = self.keys[x]
            kind = type(key)
            if kind is GEnd or kind is LEnd:
                out = _NO_LEVELS
            elif kind is GVar or kind is LVar:
                out = frozenset((int(key.var[1:]),))
            elif kind is GRec or kind is LRec:
                out = self.free_levels(key.body) - {int(key.var[1:])}
            else:
                out = _NO_LEVELS
                for _, child in key.branches:
                    out = out | self.free_levels(child)
            self._levels[x] = out
        return out


# Orders (label, child) items by label name: a label is a tuple, name first,
# and the labels of a valid node have distinct names.
_by_label = itemgetter(0)


def participants(g: GlobalType) -> frozenset[Role]:
    """The set of roles taking part in a global type (one iterative walk, so
    the depth of `g` is not bounded by the recursion limit)."""
    roles: set[Role] = set()
    todo = [g]
    while todo:
        u = todo.pop()
        kind = type(u)
        if kind is GComm or kind is GTransit:
            roles.add(u.sender)
            roles.add(u.receiver)
        elif kind is GRouted or kind is GRoutedTransit:
            roles.update((u.sender, u.receiver, u.router))
        elif kind is GRec:
            todo.append(u.body)
            continue
        elif kind is GEnd or kind is GVar:
            continue
        else:
            raise InvalidType(f"not a global type: {kind.__name__}")
        for _, cont in u.branches:
            todo.append(cont)
    return frozenset(roles)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


# The prefix each branching node prints before its branches, a format string
# over the node.
_PREFIX = {
    GComm: "{0.sender}->{0.receiver} ",
    GRouted: "{0.sender}->{0.receiver} via {0.router} ",
    GTransit: "{0.sender}->{0.receiver} [{0.chosen.name} in flight] ",
    GRoutedTransit: "{0.sender}->{0.receiver} via {0.router} [{0.chosen.name} in flight] ",
    LSelect: "{0.peer}!",
    LBranch: "{0.peer}?",
    LRoutedSelect: "{0.peer}(via {0.via})!",
    LRoutedBranch: "{0.peer}(via {0.via})?",
    LRouter: "route {0.sender}->{0.receiver} ",
    LRouterTransit: "route {0.sender}->{0.receiver} [{0.chosen.name} in flight] ",
}


def pretty_global(g: GlobalType) -> str:
    return _show(g, 0, GlobalType)


def pretty_local(t: LocalType) -> str:
    return _show(t, 0, LocalType)


def _show(u: AnyType, ind: int, grammar: type) -> str:
    """`u` printed at indent level `ind`; InvalidType on a node that is not
    of `grammar`, the base class of the grammar printed."""
    if not isinstance(u, grammar):
        raise InvalidType(type(u).__name__)
    if isinstance(u, (GEnd, LEnd)):
        return "end"
    if isinstance(u, (GVar, LVar)):
        return u.var
    if isinstance(u, (GRec, LRec)):
        return f"rec {u.var} . {_show(u.body, ind, grammar)}"
    if type(u) not in _PREFIX:
        raise InvalidType(type(u).__name__)
    prefix = _PREFIX[type(u)].format(u)
    if len(u.branches) == 1:
        lbl, cont = u.branches[0]
        return f"{prefix}{lbl} . {_show(cont, ind, grammar)}"
    pad = "  " * (ind + 1)
    inner = ",\n".join(f"{pad}{lbl}: {_show(cont, ind + 1, grammar)}"
                        for lbl, cont in u.branches)
    return prefix + "{\n" + inner + "\n" + "  " * ind + "}"
