"""Router-parameterised encoding of canonical protocols into the routed
calculus, on global types, local types and action labels.

Every interaction that does not already touch the router role is rewritten to
travel through it; interactions with the router as an endpoint stay direct.
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
    if isinstance(g, GEnd) or isinstance(g, GVar):
        return g
    if isinstance(g, GRec):
        return GRec(g.var, encode_global(g.body, s))
    if isinstance(g, (GComm, GTransit)):
        branches = tuple((lbl, encode_global(c, s)) for lbl, c in g.branches)
        if s in (g.sender, g.receiver):
            return _with_branches(g, branches)
        if isinstance(g, GComm):
            return GRouted(g.sender, g.receiver, s, branches)
        return GRoutedTransit(g.sender, g.receiver, s, g.chosen, branches)
    raise NotCanonical(f"cannot encode non-canonical construct {type(g).__name__}")


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
    if isinstance(t, LSelect):
        branches = tuple((lbl, _encode_local(c, q, s)) for lbl, c in t.branches)
        if s in (t.peer, q):
            return LSelect(t.peer, branches)
        return LRoutedSelect(t.peer, s, branches)
    if isinstance(t, LBranch):
        branches = tuple((lbl, _encode_local(c, q, s)) for lbl, c in t.branches)
        if s in (t.peer, q):
            return LBranch(t.peer, branches)
        return LRoutedBranch(t.peer, s, branches)
    raise NotCanonical(f"cannot encode non-canonical construct {type(t).__name__}")


def encode_label(l: ActionLabel, s: Role) -> ActionLabel:
    """Encode one direct action: reroute through `s` unless `s` is an endpoint."""
    if l.routed:
        raise AlreadyRouted(f"label already routed: {l}")
    if s in (l.sender, l.receiver):
        return l
    return ActionLabel(l.direction, l.sender, l.receiver, l.msg, via=s)
