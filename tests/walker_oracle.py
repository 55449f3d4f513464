"""The earlier structural walkers of `routedmpst.core`, kept verbatim as an
oracle for the ones there: `validate`, `free_vars` and `participants`
chained `isinstance` tests per node and recursed into every child, where
the walkers in `core` read each node's class once and follow the last child
in a loop.  `tests/test_walkers.py` asserts that both give the same result,
or raise `InvalidType` with the same message."""

from routedmpst.core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, GlobalType, InvalidType,
    LEnd, LRec, LRoutedBranch, LRoutedSelect, LRouter, LRouterTransit, LVar, Role,
    _REBUILD,
)

AnyType = object


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
