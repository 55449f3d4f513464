"""Router-parameterised encoding of canonical protocols into the routed
calculus, on global types, local types and action labels.

Every interaction that does not already touch the router role is rewritten to
travel through it; interactions with the router as an endpoint stay direct.
Global types encoded through one identity memo (`_encode_global`) share subterms.
"""

from __future__ import annotations

import warnings

from .core import (
    ActionLabel, GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar,
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
    return _encode_global(g, s, {})


def _encode_global(g: GlobalType, s: Role, memo: dict) -> GlobalType:
    """`encode_global` through the identity memo `{id(node): (node, encoding)}`."""
    if isinstance(g, (GEnd, GVar)):
        return g
    if id(g) in memo:
        return memo[id(g)][1]
    if isinstance(g, GRec):
        out = GRec(g.var, _encode_global(g.body, s, memo))
    elif not isinstance(g, (GComm, GTransit)):
        raise NotCanonical(f"cannot encode non-canonical construct {type(g).__name__}")
    else:
        branches = tuple((lbl, _encode_global(c, s, memo)) for lbl, c in g.branches)
        if s in (g.sender, g.receiver):
            out = _with_branches(g, branches)
        elif isinstance(g, GComm):
            out = GRouted(g.sender, g.receiver, s, branches)
        else:
            out = GRoutedTransit(g.sender, g.receiver, s, g.chosen, branches)
    memo[id(g)] = (g, out)
    return out


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
