"""Realisability checks: the centroid relation, canonical well-formedness,
and router-parameterised well-formedness.
"""

from __future__ import annotations


from .core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, GlobalType,
    Role, participants, record,
)
from .projection import MergeFailure, project
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


@record
class WfReport:
    ok: bool
    # role-name -> failure message, for every role whose projection is undefined
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
    The projections are those of `tables` if given."""
    proj = project if tables is None else tables.project
    failures = []
    for p in sorted(participants(g)):
        try:
            proj(g, p)
        except MergeFailure as exc:
            failures.append((p.name, str(exc).splitlines()[0]))
    return WfReport(not failures, tuple(failures))


def check_wf_routed(g: GlobalType, s: Role, *, tables: Tables | None = None) -> WfReport:
    """Well-formedness with respect to `s` acting as the router: every
    projection exists and `s` is a centroid of the type."""
    base = check_wf(g, tables=tables)
    cent = is_centroid(g, s)
    return WfReport(base.ok and cent.ok, base.projection_failures, cent)
