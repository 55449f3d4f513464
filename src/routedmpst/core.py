"""Core intermediate representation: roles, message labels, global and local
type grammars (including routed and in-transit constructs), LTS action labels,
and the canonical-form (`CanonicalIds`) and substitution machinery shared by
every other module.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from functools import cache
from types import CodeType, FunctionType

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Binder names produced by canonicalize; '%' cannot occur in a source identifier,
# so canonical binders never capture user-written recursion variables.
_CANON_VAR_PREFIX = "%"


class InvalidType(ValueError):
    """A type value violates a structural invariant."""


class NotRecursive(ValueError):
    """unfold_once applied to a non-recursive type."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_MISSING = object()
_object_setattr = object.__setattr__  # the generated `__init__` assigns with this
_OPS = {"__eq__": "==", "__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}


class Field:
    """A record field's options, given as its class attribute: whether
    `__init__`, `repr` and comparison (`==`, hash, ordering) use it."""

    __slots__ = ("name", "default", "init", "repr", "compare")

    def __init__(self, *, init: bool = True, repr: bool = True, compare: bool = True):
        self.name, self.default = "", _MISSING
        self.init, self.repr, self.compare = init, repr, compare


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
    elif kind in _OPS:
        src = (f"def {kind}(self, other):\n if other.__class__ is self.__class__:\n"
               f"  return {tup('self')} {_OPS[kind]} {tup('other')}\n return NotImplemented")
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


def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in self.__record_fields__ if f.repr)
    return f"{type(self).__qualname__}({shown})"


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def record(cls: type | None = None, /, *, order: bool = False, slots: bool = False):
    """Class decorator: an immutable record of the annotated fields.

    Keeps of `dataclass(frozen=True)` with the same `order` and `slots`:
    fields in annotation order, a class attribute as a default or a `Field`;
    `__init__` by position or keyword, then `__post_init__` if defined;
    `__repr__`; `==`, hash and, with `order`, `<`, `<=`, `>`, `>=` on the
    tuple of compared fields, between instances of exactly one class;
    `__match_args__`; a frozen guard (a plain `AttributeError`); with
    `slots`, a rebuilt class slotted by its fields; and every method the
    class body defines.  Pickle and `copy` call the class with the `init`
    fields, so a field `__post_init__` computes never crosses processes.
    Left out: `dataclasses.fields`/`replace`/`asdict`/`is_dataclass`,
    default factories, `ClassVar`/`InitVar`/`KW_ONLY`, mutable records, the
    generated `__doc__` and `repr`'s recursion guard.

    No source is compiled per class.  `__init__`, `==`, hash and ordering
    are the class's own copies of a template code object per (method,
    field count), renamed by `CodeType.replace`: the straight-line code
    `dataclass` generates, as fast.  `repr`, the guard and `__reduce__` are
    never hot, so they are shared generic functions."""
    if cls is None:
        return lambda cls: record(cls, order=order, slots=slots)
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
    init = [f for f in fields if f.init]
    compared = [f.name for f in fields if f.compare]
    methods = {
        "__init__": _method(cls, "__post_init__" if hasattr(cls, "__post_init__") else "__init__",
                            [f.name for f in init],
                            tuple(f.default for f in init if f.default is not _MISSING)),
        "__repr__": _repr, "__eq__": _method(cls, "__eq__", compared),
        "__hash__": _method(cls, "__hash__", compared),
        "__setattr__": _frozen, "__delattr__": _frozen, "__reduce__": _reduce,
        "__match_args__": tuple(f.name for f in init), "__record_fields__": tuple(fields),
    }
    if order:
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            methods[op] = _method(cls, op, compared)
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


# Roles, message labels and action labels are the atoms every step table
# hashes.  Each computes its hash once, when it is built, into a `_hash`
# slot that equality, ordering and repr ignore.  The value is the hash of
# the tuple of compared fields, the hash every other record computes, so
# sets and dicts of atoms iterate as they would without the cache.  A
# string's hash depends on the process's hash seed, so the cached hash must
# never cross processes: the record's `__reduce__` rebuilds an atom from its
# fields, for pickle and for `copy`.


@record(slots=True, order=True)
class Role:
    """A protocol participant, identified by a case-sensitive name."""

    name: str
    _hash: int = Field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise InvalidType(f"invalid role name: {self.name!r}")
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@record(slots=True, order=True)
class MsgLabel:
    """A message label plus its (inert) payload sorts.

    Payload sorts are carried verbatim from the source and never inspected by
    the transition semantics.
    """

    name: str
    payload_sorts: tuple[str, ...] = ()
    _hash: int = Field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise InvalidType(f"invalid message label: {self.name!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.payload_sorts)))

    def __hash__(self) -> int:
        return self._hash

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


@record(slots=True)
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
    _hash: int = Field(init=False, repr=False, compare=False)

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


# Each branching node class and how to rebuild one of its nodes with another
# branch tuple.  Walkers read `.branches` once leaves and binders are ruled
# out; `validate` rejects a node whose class is not here.
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
    if type(u) not in _REBUILD:
        raise InvalidType(f"unknown node {type(u).__name__}")
    branches = u.branches
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
    return frozenset().union(*(free_vars(c) for _, c in t.branches))


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
    branches = tuple((lbl, substitute(c, var, replacement)) for lbl, c in t.branches)
    if all(new is old for (_, new), (_, old) in zip(branches, t.branches)):
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
        for lbl, c in key.branches:
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
            for lbl, c in t.branches:
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
        for lbl, c in u.branches:
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


def pretty_global(g: GlobalType, indent: int = 0) -> str:
    return _show(g, indent, GlobalType)


def pretty_local(t: LocalType, indent: int = 0) -> str:
    return _show(t, indent, LocalType)


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
