"""A reference `canonicalize`: the earlier quadratic version, which
recomputes the free variables of a body at every binder and builds the form
directly.  It is the oracle for the one canonical-form algorithm of
`routedmpst.core`, `CanonicalIds`: for its ids, for `canonicalize`, which
rebuilds forms from its keys, and for the open-type equality of `merge`.
It also takes open types, whose free variables keep their names and whose
binders avoid those names.  Also the earlier `merge`, which compares
canonical forms before any structural case, as an oracle for the
structural-first one in `routedmpst.projection`."""

from routedmpst.core import (
    GEnd, GRec, GVar, LBranch, LEnd, LRec, LRoutedBranch, LVar, _with_branches, validate,
)
from routedmpst.projection import MergeFailure


def canonicalize(t):
    validate(t, allow_free=True)
    return _canonical(t, {}, 0, free_vars(t))


def free_vars(t) -> frozenset[str]:
    if isinstance(t, (GEnd, LEnd)):
        return frozenset()
    if isinstance(t, (GVar, LVar)):
        return frozenset((t.var,))
    if isinstance(t, (GRec, LRec)):
        return free_vars(t.body) - {t.var}
    return frozenset().union(*(free_vars(c) for _, c in t.branches))


def _canonical(u, env, depth, reserved):
    if isinstance(u, (GEnd, LEnd)):
        return u
    if isinstance(u, (GVar, LVar)):
        return type(u)(env.get(u.var, u.var))
    if isinstance(u, (GRec, LRec)):
        if u.var not in free_vars(u.body):
            return _canonical(u.body, env, depth, reserved)
        name = f"%{depth}"
        while name in reserved:
            name = "%" + name
        inner = dict(env)
        inner[u.var] = name
        return type(u)(name, _canonical(u.body, inner, depth + 1, reserved))
    branches = tuple(sorted(((lbl, _canonical(c, env, depth, reserved))
                             for lbl, c in u.branches),
                            key=lambda item: item[0].name))
    return _with_branches(u, branches)


def merge(a, b):
    if canonicalize(a) == canonicalize(b):
        return a
    if isinstance(a, LBranch) and isinstance(b, LBranch) and a.peer == b.peer:
        return LBranch(a.peer, _merge_branches(a, b))
    if (isinstance(a, LRoutedBranch) and isinstance(b, LRoutedBranch)
            and a.peer == b.peer and a.via == b.via):
        return LRoutedBranch(a.peer, a.via, _merge_branches(a, b))
    if isinstance(a, LRec) and isinstance(b, LRec) and a.var == b.var:
        return LRec(a.var, merge(a.body, b.body))
    raise MergeFailure(a, b)


def _merge_branches(a, b):
    out = []
    b_by_name = {lbl.name: (lbl, cont) for lbl, cont in b.branches}
    seen = set()
    for lbl, cont in a.branches:
        seen.add(lbl.name)
        if lbl.name in b_by_name:
            other_lbl, other_cont = b_by_name[lbl.name]
            if other_lbl != lbl:
                raise MergeFailure(a, b, f"payload sorts differ on label {lbl.name}")
            out.append((lbl, merge(cont, other_cont)))
        else:
            out.append((lbl, cont))
    for lbl, cont in b.branches:
        if lbl.name not in seen:
            out.append((lbl, cont))
    return tuple(out)
