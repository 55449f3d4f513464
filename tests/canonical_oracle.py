"""A reference `canonicalize`: the earlier quadratic version, which
recomputes the free variables of a body at every binder.  Kept as an oracle
for the linear one in `routedmpst.core`."""

from routedmpst.core import (
    GEnd, GRec, GVar, LEnd, LRec, LVar, _node_branches, _with_branches, validate,
)


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
    return frozenset().union(*(free_vars(c) for _, c in _node_branches(t)))


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
                             for lbl, c in _node_branches(u)),
                            key=lambda item: item[0].name))
    return _with_branches(u, branches)
