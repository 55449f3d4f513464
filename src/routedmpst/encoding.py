"""Router-parameterised encoding of canonical protocols into the routed
calculus, on global types, local types and action labels.

Every interaction that does not already touch the router role is rewritten to
travel through it; interactions with the router as an endpoint stay direct.
One node encoder, `_encode_node`, serves `encode_global` and `_encode_id`,
which encodes canonical ids without building a type.
"""

from __future__ import annotations

import warnings

from .core import (
    ActionLabel, CanonicalIds, GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar,
    GlobalType, LBranch, LEnd, LRec, LRoutedBranch, LRoutedSelect, LSelect,
    LVar, LocalType, Role, _with_branches,
)


class NotCanonical(ValueError):
    """Encoding applied to a type that already contains routed nodes."""


class AlreadyRouted(ValueError):
    """Label encoding applied to a routed action."""


class RouterPerspectiveWarning(UserWarning):
    """Local encoding taken from the router's own perspective loses routing
    information; the result is computed anyway."""


def encode_global(g: GlobalType, s: Role) -> GlobalType:
    """Encode a canonical global type with respect to router `s`.

    Direct in-transit markers are encoded too, because the reachable states
    of a canonical type contain them and the bisimulation checker encodes
    those mid-trace states.  Routed constructs are rejected."""
    if isinstance(g, (GEnd, GVar)):
        return g
    return _encode_node(g, s, encode_global, ())


def _encode_id(sid: int, s: Role, ids: CanonicalIds, memo: dict) -> int:
    """The id in `ids` of `encode_global` of the type whose id is `sid`,
    through the memo `{(sid, s): encoded id}`.  The encoding keeps binders
    and branch labels, so it maps the key node of each id to the key node
    of its encoding, with no type built.  Open ids are encoded alike."""
    out = memo.get((sid, s))
    if out is None:
        key = ids.keys[sid]
        out = memo[(sid, s)] = sid if isinstance(key, (GEnd, GVar)) else \
            ids.key_id(_encode_node(key, s, _encode_id, (ids, memo)))
    return out


def _encode_node(g: GlobalType, s: Role, encode, args: tuple) -> GlobalType:
    """The binder or communication `g` encoded through `s`, its body or each
    continuation `c` replaced by `encode(c, s, *args)`.  NotCanonical on a
    routed node.  A loop, not a comprehension: one stack frame per level."""
    if isinstance(g, GRec):
        return GRec(g.var, encode(g.body, s, *args))
    if not isinstance(g, (GComm, GTransit)):
        raise NotCanonical(f"cannot encode non-canonical construct {type(g).__name__}")
    branches = []
    for lbl, c in g.branches:
        branches.append((lbl, encode(c, s, *args)))
    branches = tuple(branches)
    if s in (g.sender, g.receiver):
        return _with_branches(g, branches)
    if isinstance(g, GComm):
        return GRouted(g.sender, g.receiver, s, branches)
    return GRoutedTransit(g.sender, g.receiver, s, g.chosen, branches)


def encode_local(t: LocalType, q: Role, s: Role) -> LocalType:
    """Encode a canonical local type seen from role `q` with router `s`."""
    if q == s:
        warnings.warn(
            "encoding a local type from the router's own perspective drops "
            "routed interactions", RouterPerspectiveWarning, stacklevel=2)
    return _encode_local(t, q, s)


def _encode_local(t: LocalType, q: Role, s: Role) -> LocalType:
    if isinstance(t, (LEnd, LVar)):
        return t
    if isinstance(t, LRec):
        return LRec(t.var, _encode_local(t.body, q, s))
    if isinstance(t, (LSelect, LBranch)):
        branches = tuple((lbl, _encode_local(c, q, s)) for lbl, c in t.branches)
        if s in (t.peer, q):
            return _with_branches(t, branches)
        return (LRoutedSelect if isinstance(t, LSelect) else LRoutedBranch)(t.peer, s, branches)
    raise NotCanonical(f"cannot encode non-canonical construct {type(t).__name__}")


def encode_label(l: ActionLabel, s: Role) -> ActionLabel:
    """Encode one direct action: reroute through `s` unless `s` is an endpoint."""
    if l.routed:
        raise AlreadyRouted(f"label already routed: {l}")
    if s in (l.sender, l.receiver):
        return l
    return ActionLabel(l.direction, l.sender, l.receiver, l.msg, via=s)
