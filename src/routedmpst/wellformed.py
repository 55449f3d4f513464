"""Realisability checks: the centroid relation, canonical well-formedness,
and router-parameterised well-formedness.
"""

from __future__ import annotations


from .core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, GlobalType,
    Role, participants, record,
)
from .projection import MergeFailure
from .semantics import Tables


@record
class CentroidResult:
    ok: bool
    # Path of branch labels from the root to the first violating construct.
    witness_path: tuple[str, ...] = ()
    witness: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_centroid(g: GlobalType, s: Role) -> CentroidResult:
    """Does `s` take part in (or route) every interaction of `g`?

    On failure the result carries the branch-label path to the outermost
    violating construct.
    """
    failure = _centroid(g, s)
    if failure is None:
        return CentroidResult(True)
    path, witness = failure
    return CentroidResult(False, tuple(reversed(path)), witness)


def _centroid(u: GlobalType, s: Role) -> tuple[list[str], str] | None:
    """None if `s` is a centroid of `u`; else the first violation's label
    path from `u`, innermost label first, and its witness.  The path is
    built only on the way out of a failure, so the walk is linear."""
    kind = type(u)
    if kind is GEnd or kind is GVar:
        return None
    if kind is GRec:
        return _centroid(u.body, s)
    if kind is GComm or kind is GTransit:
        if s.name != u.sender.name and s.name != u.receiver.name:  # by name, as `project`
            return [], f"{u.sender}->{u.receiver} does not involve {s}"
    elif kind is GRouted or kind is GRoutedTransit:
        if u.router.name != s.name:
            return [], f"{u.sender}->{u.receiver} routed via {u.router}, not {s}"
    else:
        raise TypeError(kind.__name__)
    for lbl, cont in u.branches:
        failure = _centroid(cont, s)
        if failure is not None:
            failure[0].append(lbl.name)
            return failure
    return None


@record
class WfReport:
    ok: bool
    # role-name -> one-line failure message, for every role whose projection
    # is undefined
    projection_failures: tuple[tuple[str, str], ...] = ()
    centroid: CentroidResult | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        parts = [f"projection undefined for {name}: {msg}"
                 for name, msg in self.projection_failures]
        if self.centroid is not None and not self.centroid.ok:
            at = "/".join(self.centroid.witness_path) or "<root>"
            parts.append(f"centroid violated at {at}: {self.centroid.witness}")
        return "; ".join(parts)


def check_wf(g: GlobalType, *, tables: Tables | None = None) -> WfReport:
    """Canonical well-formedness: projection defined for every participant.
    The projections are those of `tables`, fresh ones if None.  Raises
    InvalidType unless `g` is a valid closed type (`Tables.check`)."""
    tables = Tables() if tables is None else tables
    tables.check(g)
    failures = []
    for p in sorted(participants(g)):
        try:
            tables.project(g, p)
        except MergeFailure as exc:
            failures.append((p.name, exc.one_line()))
    return WfReport(not failures, tuple(failures))


def check_wf_routed(g: GlobalType, s: Role, *, tables: Tables | None = None) -> WfReport:
    """Well-formedness with respect to `s` acting as the router: every
    projection exists (`check_wf`) and `s` is a centroid of the type."""
    base = check_wf(g, tables=tables)
    cent = is_centroid(g, s)
    return WfReport(base.ok and cent.ok, base.projection_failures, cent)
