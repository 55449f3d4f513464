"""`core.CanonicalIds` against the reference `canonical_oracle.canonicalize`:
within one interner, two closed types get the same id exactly when their
canonical forms are equal, and `form` rebuilds that form from the id.  The
open-type equality of `projection.merge` against the same oracle.  And its
cost: one walk per node, however many of its subterms are keyed."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from routedmpst.core import (
    CanonicalIds, GRec, LRec, LSelect, LVar, MsgLabel, _with_branches, free_vars,
    unfold_once,
)
from routedmpst.projection import MergeFailure, _canonically_equal, project
from routedmpst.semantics import global_steps, local_steps

import canonical_oracle
from corpus import A, B, C
from strategies import ROLE_POOL, global_types, local_types, with_unused_binders

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _subterms(t):
    yield t
    if isinstance(t, (GRec, LRec)):
        yield from _subterms(t.body)
    for _, c in getattr(t, "branches", None) or ():
        yield from _subterms(c)


def _pool(types, steps):
    """The closed subterms of each type, its unfolding and its one-step
    successors."""
    pool = []
    for t in types:
        related = [t] + [succ for _, succ in steps(t)]
        if isinstance(t, (GRec, LRec)):
            related.append(unfold_once(t))
        pool += [u for r in related for u in _subterms(r) if not free_vars(u)]
    return pool


def _agrees(pool, order):
    """Key the pool in `order` with one interner; ids and canonical forms
    must partition it the same way, and each id's form must be the oracle's."""
    ids = CanonicalIds()
    by_id, by_form = {}, {}
    for i in order:
        form, sid = canonical_oracle.canonicalize(pool[i]), ids.of(pool[i])
        assert ids.form(sid) == form
        assert by_id.setdefault(sid, form) == form
        assert by_form.setdefault(form, sid) == sid


def _mirrored(t):
    """`t` with the branches of every node in reverse order."""
    if isinstance(t, (GRec, LRec)):
        return type(t)(t.var, _mirrored(t.body))
    if getattr(t, "branches", None) is None:
        return t
    return _with_branches(t, tuple((lbl, _mirrored(c)) for lbl, c in reversed(t.branches)))


@st.composite
def _closed_pools(draw, types, steps):
    originals = draw(st.lists(types, min_size=1, max_size=3))
    variants = [draw(with_unused_binders(t)) for t in originals]
    variants += [_mirrored(t) for t in variants]
    pool = _pool(originals + variants, steps)
    return pool, draw(st.permutations(range(len(pool))))


@PROPERTY
@given(_closed_pools(global_types(depth=4, roles=ROLE_POOL), global_steps))
def test_agrees_with_canonicalize_on_global_types(drawn):
    _agrees(*drawn)


@PROPERTY
@given(st.sampled_from(ROLE_POOL).flatmap(lambda role: _closed_pools(
    local_types(role, depth=4, roles=ROLE_POOL), lambda t: local_steps(t, role))))
def test_agrees_with_canonicalize_on_local_types(drawn):
    _agrees(*drawn)


# Free names of open projections, some of them already canonical binder
# names, which a canonical form must not confuse with its own binders.
OPEN_NAMES = ("x", "y", "%0", "%1", "%%0")


@st.composite
def _projected_pools(draw):
    """The subterms, open and closed, of every role's projection of an open
    global type and of a variant with unused binders and mirrored branches."""
    g = draw(global_types(depth=4, roles=ROLE_POOL, free_vars=OPEN_NAMES))
    pool = []
    for t in (g, _mirrored(draw(with_unused_binders(g)))):
        for role in ROLE_POOL:
            try:
                pool += _subterms(project(t, role))
            except MergeFailure:
                pass
    return pool


@PROPERTY
@given(_projected_pools())
def test_merge_equality_agrees_with_canonical_forms_on_open_types(pool):
    """`merge`'s last-resort test against the oracle's canonical forms,
    whose free variables keep their names, on every pair of the pool."""
    forms = [canonical_oracle.canonicalize(t) for t in pool]
    for a, form_a in zip(pool, forms):
        for b, form_b in zip(pool, forms):
            assert _canonically_equal(a, b) == (form_a == form_b)


def _sel(peer, *branches):
    return LSelect(peer, tuple((MsgLabel(name), cont) for name, cont in branches))


def test_a_shared_open_object_is_keyed_under_each_binder():
    """One `LVar("x")` object sits under binders of different levels, in one
    type and across types keyed by one interner; a key memoised by identity
    would name the wrong binder.  Each type also gets a copy that shares no
    object, which must get the same id."""
    def types(x):
        return [
            LRec("x", _sel(A, ("a", LRec("y", _sel(B, ("b", x()), ("c", LVar("y"))))),
                           ("d", x()))),
            LRec("x", _sel(C, ("a", x()))),  # x at level 0
            LRec("y", _sel(C, ("b", LRec("x", _sel(B, ("e", x()), ("f", LVar("y"))))))),
            LRec("y", _sel(C, ("b", LRec("x", _sel(B, ("e", LVar("y")),
                                                        ("f", LVar("y"))))))),
        ]
    shared_x = LVar("x")
    shared, fresh = types(lambda: shared_x), types(lambda: LVar("x"))
    pool = shared + fresh
    for order in (range(len(pool)), reversed(range(len(pool)))):
        _agrees(pool, list(order))
    ids = CanonicalIds()
    assert [ids.of(t) for t in shared] == [ids.of(t) for t in fresh]


def test_a_closed_binder_and_an_open_one_get_distinct_keys():
    """The inner binder of the first type is open (its body names x), that
    of the second closed; their bodies are alike but for that name."""
    def inner(body_b):
        return LRec("y", _sel(B, ("b", body_b), ("c", LVar("y"))))
    pool = [LRec("x", _sel(A, ("a", inner(LVar("x"))), ("d", LVar("x")))),
            LRec("x", _sel(A, ("a", inner(LVar("y"))), ("d", LVar("x"))))]
    _agrees(pool, [0, 1])
    _agrees(pool, [1, 0])


def test_open_types_have_no_id():
    ids = CanonicalIds()
    body = _sel(A, ("a", LVar("x")))
    assert ids.free_vars(body) == frozenset({"x"})
    with pytest.raises(ValueError):
        ids.of(body)
    assert ids.of(LRec("x", body)) == CanonicalIds().of(LRec("x", body))


def test_each_node_is_walked_once_when_every_suffix_is_keyed(monkeypatch):
    """Every suffix state of a recursive 300-message sequence, as
    `build_efsm` keys them: each node is walked once, and each node under
    the binder is keyed once relative to it."""
    body = LVar("x")
    for i in range(300):
        body = _sel(B, (f"m{i}", body))
    t = LRec("x", body)
    unfolded = unfold_once(t)
    calls = {"_walk": 0, "_open": 0}
    for name in calls:
        original = getattr(CanonicalIds, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(CanonicalIds, name, counted)
    suffixes, state = [], unfolded
    while isinstance(state, LSelect):
        suffixes.append(state)
        state = state.branches[0][1]
    assert state is t
    ids = CanonicalIds()
    # Deepest first: the counting wrapper doubles the stack frames per level.
    keys = [ids.of(s) for s in reversed(suffixes)]
    assert len(set(keys)) == 300 and ids.of(t) not in keys
    # t, its body (300 messages and the variable) and the unfolded copy.
    assert calls == {"_walk": 1 + 301 + 300, "_open": 301}
