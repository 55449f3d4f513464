"""Endpoint projection and the merge operator.

Projection maps a global type and a role to that role's local type; when a
communication does not involve the role, the branch projections must be
reconciled by the merge operator, which is partial.
"""

from __future__ import annotations

from .core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, GlobalType,
    CanonicalIds, LBranch, LEnd, LRec, LRouter, LRouterTransit, LRoutedBranch,
    LRoutedSelect, LSelect, LVar, LocalType, Role, branch_for, free_vars,
    participants, pretty_local,
)


class MergeFailure(Exception):
    """The merge operator is undefined on the given pair of local types."""

    def __init__(self, left: LocalType, right: LocalType, reason: str = ""):
        self.left = left
        self.right = right
        self.reason = reason
        super().__init__(
            f"{self._head()}:\n  {pretty_local(left)}\n  {pretty_local(right)}"
        )

    def _head(self) -> str:
        return f"cannot merge ({self.reason})" if self.reason else "cannot merge"

    def one_line(self) -> str:
        """The message on one line: both local types, each with its
        whitespace collapsed, as `cannot merge: L vs R`."""
        left, right = (" ".join(pretty_local(t).split()) for t in (self.left, self.right))
        return f"{self._head()}: {left} vs {right}"


def merge(a: LocalType, b: LocalType) -> LocalType:
    """Merge two local types; raises MergeFailure when undefined.

    Branch-like types from the same peer (and router, for routed branching)
    merge labelwise: disjoint labels union, shared labels merge recursively.
    Selections, routers and everything else merge only when canonically
    equal.  The structural cases are tried first and canonical equality
    last: when `a` and `b` are canonically equal, each structural case
    already returns a type equal to `a`, so only a pair that no structural
    case fits pays for keying both sides.
    """
    if a == b:
        return a
    if isinstance(a, LBranch) and isinstance(b, LBranch) and a.peer == b.peer:
        return LBranch(a.peer, _merge_branches(a, b))
    if (isinstance(a, LRoutedBranch) and isinstance(b, LRoutedBranch)
            and a.peer == b.peer and a.via == b.via):
        return LRoutedBranch(a.peer, a.via, _merge_branches(a, b))
    if isinstance(a, LRec) and isinstance(b, LRec) and a.var == b.var:
        return LRec(a.var, merge(a.body, b.body))
    if _canonically_equal(a, b):
        return a
    raise MergeFailure(a, b)


def _canonically_equal(a: LocalType, b: LocalType) -> bool:
    """Canonical equality of possibly open types (projections under a binder):
    free variables keep their names, so they must agree; then both types are
    closed by the same binders and compared by `CanonicalIds` id."""
    ids = CanonicalIds()
    free = ids.free_vars(a)
    if free != ids.free_vars(b):
        return False
    for var in sorted(free):
        a, b = LRec(var, a), LRec(var, b)
    return ids.of(a) == ids.of(b)


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


def merge_all(parts):
    acc = parts[0]
    for nxt in parts[1:]:
        acc = merge(acc, nxt)
    return acc


def project(g: GlobalType, r: Role) -> LocalType:
    """Project a valid closed global type (see `core.validate`) onto one role.

    The type is not validated here: callers that take types from outside,
    such as `semantics.project_configuration`, validate once.  Raises
    MergeFailure when a communication not involving `r` has incompatible
    branch projections.  One walk: each node's class is tested once, and a
    single branch is projected without a generator frame.
    """
    kind = type(g)
    if kind is GEnd:
        return LEnd()
    if kind is GVar:
        return LVar(g.var)
    if kind is GRec:
        # The standard rule (Scalas & Yoshida, POPL 2019): a loop projects
        # to `LEnd` for a role outside it only if the loop is closed, that
        # is, if its body leaves it through no outer binder's variable.
        try:
            body = project(g.body, r)
        except MergeFailure:
            # The branch projections of a role outside a closed loop can
            # strand the loop's back-edge variable in merges: it projects to
            # `LEnd`, which keeps projection total on such roles.  Only a
            # failure pays for the walks.
            if r in participants(g.body) or not free_vars(g.body) <= {g.var}:
                raise
            return LEnd()
        # A variable body is a role's jump back: to this loop, which it
        # takes no part in (`LEnd`), or on to an outer one, which it might.
        if type(body) is LVar:
            return LEnd() if body.var == g.var else body
        if g.var not in free_vars(body):
            return body
        return LRec(g.var, body)

    # The local node `r` sees: `make(*head, branch projections)`, or None
    # for a communication `r` takes no part in.  Roles are compared by name,
    # which is what `Role.__eq__` compares, without its Python call per test.
    me = r.name
    if kind is GComm:
        if me == g.sender.name:
            make, head = LSelect, (g.receiver,)
        elif me == g.receiver.name:
            make, head = LBranch, (g.sender,)
        else:
            make = None
    elif kind is GRouted:
        if me == g.sender.name:
            make, head = LRoutedSelect, (g.receiver, g.router)
        elif me == g.receiver.name:
            make, head = LRoutedBranch, (g.sender, g.router)
        elif me == g.router.name:
            make, head = LRouter, (g.sender, g.receiver)
        else:
            make = None
    elif kind is GTransit:
        if me == g.receiver.name:
            make, head = LBranch, (g.sender,)
        else:
            make, head = _chosen, (g.chosen,)
    elif kind is GRoutedTransit:
        if me == g.receiver.name:
            make, head = LRoutedBranch, (g.sender, g.router)
        elif me == g.router.name:
            make, head = LRouterTransit, (g.sender, g.receiver, g.chosen)
        else:
            make, head = _chosen, (g.chosen,)
    else:
        raise TypeError(kind.__name__)

    branches = g.branches
    if make is None:
        # A communication `r` takes no part in: merge its branch projections.
        if len(branches) == 1:
            return project(branches[0][1], r)
        return merge_all([project(cont, r) for _, cont in branches])
    if len(branches) == 1:
        lbl, cont = branches[0]
        return make(*head, ((lbl, project(cont, r)),))
    return make(*head, tuple([(lbl, project(cont, r)) for lbl, cont in branches]))


def _chosen(label, conts):
    """The projection of the message in flight, once every branch projects."""
    return branch_for(conts, label)
