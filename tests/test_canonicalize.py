"""The linear `canonicalize` against the earlier quadratic one
(`canonical_oracle`), and its cost: a bounded number of visits per node."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from routedmpst import core
from routedmpst.core import GComm, GEnd, GRec, GVar, LRec, canonicalize

import canonical_oracle
from corpus import A, B, M1, M2, one
from strategies import ROLE_POOL, global_types, local_types, with_unused_binders

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _agrees(t):
    assert canonicalize(t) == canonical_oracle.canonicalize(t)


@PROPERTY
@given(global_types(depth=4, roles=ROLE_POOL))
def test_agrees_on_global_types(g):
    _agrees(g)


@PROPERTY
@given(st.sampled_from(ROLE_POOL).flatmap(
    lambda r: local_types(r, depth=4, roles=ROLE_POOL)))
def test_agrees_on_local_types(t):
    _agrees(t)


@PROPERTY
@given(global_types(depth=3, roles=ROLE_POOL).flatmap(with_unused_binders))
def test_agrees_with_nested_unused_binders(g):
    _agrees(g)


def _tree_size(t) -> int:
    if isinstance(t, (GRec, LRec)):
        return 1 + _tree_size(t.body)
    return 1 + sum(_tree_size(c) for _, c in getattr(t, "branches", None) or ())


def test_each_node_is_walked_once_per_pass(monkeypatch):
    """Deep nests of unused binders, used binders and branching: keying
    walks every node once, and rebuilding the form visits every node of the
    form once."""
    body = GComm(A, B, ((M1, GVar("x")), (M2, GEnd())))
    for i in range(60):
        body = GRec(f"u{i}", body)
    g = GRec("x", GComm(B, A, one(M1, body)))
    calls = {"_walk": 0, "form": 0}
    for name in calls:
        original = getattr(core.CanonicalIds, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(core.CanonicalIds, name, counted)
    out = canonicalize(g)
    assert calls == {"_walk": _tree_size(g), "form": _tree_size(out)}
    assert out == canonical_oracle.canonicalize(g)
