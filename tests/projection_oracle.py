"""The earlier `project` and `is_centroid`, kept verbatim, but for the loop
rule, as references for the one-walk versions in `routedmpst.projection`
and `routedmpst.wellformed`.

This `project` walks the loop body for its participants and free variables
at every binder, before projecting it, and tests each node's class through
an `isinstance` chain; this `_centroid` threads the label path down the
walk, copying it at every level.  `tests/test_projection.py` checks that
both give the same local types, `MergeFailure` messages and
`CentroidResult`s.  `project` recurses into itself, so the reference never
calls the production one.

Its loop rule is the standard one, not the earlier `project`'s: a loop
projects to `end` for a role outside it only when the loop is closed, and a
body that projects to an outer binder's variable projects to that variable
(Scalas & Yoshida, POPL 2019).  The earlier rule dropped a role's jump back
to an outer loop it takes part in, which broke trace equivalence."""

from routedmpst.core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, GlobalType,
    LBranch, LEnd, LRec, LRouter, LRouterTransit, LRoutedBranch, LRoutedSelect,
    LSelect, LVar, LocalType, Role, branch_for, free_vars, participants,
)
from routedmpst.projection import merge_all
from routedmpst.wellformed import CentroidResult


def project(g: GlobalType, r: Role) -> LocalType:
    """Project a valid closed global type (see `core.validate`) onto one role.

    The type is not validated here: callers that take types from outside,
    such as `semantics.project_configuration`, validate once.  Raises
    MergeFailure when a communication not involving `r` has incompatible
    branch projections.
    """
    if isinstance(g, GEnd):
        return LEnd()
    if isinstance(g, GVar):
        return LVar(g.var)
    if isinstance(g, GRec):
        if r not in participants(g.body) and free_vars(g.body) <= {g.var}:
            # A role outside a closed loop contributes nothing to it;
            # projecting the body would otherwise strand its back-edge
            # variable in merges.  This keeps projection total on them.
            return LEnd()
        body = project(g.body, r)
        if isinstance(body, LVar):
            return LEnd() if body.var == g.var else body
        if g.var not in free_vars(body):
            return body
        return LRec(g.var, body)

    if (isinstance(g, GComm) and r != g.sender and r != g.receiver
            or isinstance(g, GRouted) and r not in (g.sender, g.receiver, g.router)):
        # A communication `r` takes no part in: merge its branch projections.
        if len(g.branches) == 1:
            return project(g.branches[0][1], r)
        return merge_all([project(cont, r) for _, cont in g.branches])

    conts = tuple((lbl, project(cont, r)) for lbl, cont in g.branches)

    if isinstance(g, GComm):
        if r == g.sender:
            return LSelect(g.receiver, conts)
        return LBranch(g.sender, conts)
    if isinstance(g, GRouted):
        if r == g.sender:
            return LRoutedSelect(g.receiver, g.router, conts)
        if r == g.receiver:
            return LRoutedBranch(g.sender, g.router, conts)
        return LRouter(g.sender, g.receiver, conts)
    if isinstance(g, GTransit):
        if r == g.receiver:
            return LBranch(g.sender, conts)
        return branch_for(conts, g.chosen)
    if isinstance(g, GRoutedTransit):
        if r == g.receiver:
            return LRoutedBranch(g.sender, g.router, conts)
        if r == g.router:
            return LRouterTransit(g.sender, g.receiver, g.chosen, conts)
        return branch_for(conts, g.chosen)
    raise TypeError(type(g).__name__)


def is_centroid(g: GlobalType, s: Role) -> CentroidResult:
    """Does `s` take part in (or route) every interaction of `g`?

    On failure the result carries the branch-label path to the outermost
    violating construct.
    """
    return _centroid(g, s, ())


def _centroid(u: GlobalType, s: Role, path: tuple[str, ...]) -> CentroidResult:
    if isinstance(u, (GEnd, GVar)):
        return CentroidResult(True)
    if isinstance(u, GRec):
        return _centroid(u.body, s, path)
    if isinstance(u, (GComm, GTransit)):
        if s not in (u.sender, u.receiver):
            return CentroidResult(False, path, f"{u.sender}->{u.receiver} does not involve {s}")
    elif isinstance(u, (GRouted, GRoutedTransit)):
        if u.router != s:
            return CentroidResult(False, path,
                                  f"{u.sender}->{u.receiver} routed via {u.router}, not {s}")
    else:
        raise TypeError(type(u).__name__)
    for lbl, cont in u.branches:
        sub = _centroid(cont, s, path + (lbl.name,))
        if not sub.ok:
            return sub
    return CentroidResult(True)
