"""The structural walkers of `routedmpst.core` (`validate`, `participants`
and `free_vars`) against the earlier ones kept in `walker_oracle`: the same
result, or the same exception and message, on derandomised drawn types of
both grammars, their encodings and the states they reach, and on one
hand-built breach of each invariant."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from routedmpst.analysis import reachable_states
from routedmpst.core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, GlobalType, LBranch, LEnd,
    LRec, LRoutedBranch, LRoutedSelect, LRouter, LRouterTransit, LSelect, LVar, LocalType,
    MsgLabel, free_vars, participants, validate,
)
from routedmpst.encoding import encode_global
from routedmpst.projection import MergeFailure, project
from routedmpst.semantics import local_steps

import walker_oracle
from corpus import A, B, C, M1, M2, load, one
from strategies import ROLE_POOL, binder_nests, global_types, local_types, with_unused_binders

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _outcome(fn, *args, **kwargs):
    """`fn`'s result, or the class and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # InvalidType, or AttributeError on a foreign node
        return type(exc), str(exc)


def _assert_agree(t):
    for allow_free in (False, True):
        assert _outcome(validate, t, allow_free=allow_free) \
            == _outcome(walker_oracle.validate, t, allow_free=allow_free)
    assert _outcome(free_vars, t) == _outcome(walker_oracle.free_vars, t)
    assert _outcome(participants, t) == _outcome(walker_oracle.participants, t)


def _projections(g):
    """The projections of `g` onto every role of the pool that has one."""
    out = []
    for role in ROLE_POOL:
        try:
            out.append(project(g, role))
        except MergeFailure:
            pass
    return out


@SETTINGS
@given(g=global_types(depth=5, roles=ROLE_POOL), data=st.data())
def test_the_walkers_agree_on_global_types_their_encodings_states_and_projections(g, data):
    # Encodings hold `GRouted` nodes, and the states 3 steps on hold
    # `GTransit` and `GRoutedTransit` nodes; their projections hold every
    # local node class, `LRouterTransit` included.
    types = [g]
    roles = sorted(participants(g))
    if roles:
        types.append(encode_global(g, data.draw(st.sampled_from(roles))))
    types += [state for t in types for state in reachable_states(t, 3)]
    for t in types:
        _assert_agree(t)
        for local in _projections(t):
            _assert_agree(local)


@SETTINGS
@given(t=local_types(A, depth=5, roles=ROLE_POOL))
def test_the_walkers_agree_on_local_types_and_the_states_they_reach(t):
    types = [t]
    for _ in range(2):
        types += [succ for u in types[-1:] for _, succ in local_steps(u, A)]
    for u in types:
        _assert_agree(u)


@SETTINGS
@given(data=st.data())
def test_the_walkers_agree_on_open_types_unused_binders_and_binder_nests(data):
    # Free variables (unbound unless `allow_free`), binders no variable
    # uses, and bodies that name an outer binder past inner ones.
    local = data.draw(st.booleans())
    drawn = [data.draw(global_types(depth=4, roles=ROLE_POOL, free_vars=("x", "y"))),
             data.draw(binder_nests(depth=4, local=local))]
    drawn.append(data.draw(with_unused_binders(drawn[1])))
    for t in drawn:
        _assert_agree(t)
        body = t
        while isinstance(body, (GRec, LRec)):
            body = body.body
            _assert_agree(body)  # open below its binder


def test_the_walkers_agree_on_the_corpus_and_its_encodings():
    for name, router in (("TravelAgency", "S"), ("PingPong", "S"), ("Game", "Svr"),
                         ("Battleships", "Svr"), ("OuterLoop", "D")):
        g = load(name) if name != "OuterLoop" else load(name, "P")
        for t in (g, encode_global(g, next(r for r in participants(g) if r.name == router))):
            _assert_agree(t)
            for local in _projections(t):
                _assert_agree(local)


class Foreign(GlobalType):
    """A node class the grammars do not have."""

    __slots__ = ()


class ForeignLocal(LocalType):
    __slots__ = ()


END, LEND = GEnd(), LEnd()
TWICE = ((MsgLabel("m1"), GEnd()), (MsgLabel("m1", ("int",)), GEnd()))  # one name

# One breach of each invariant, each in both grammars where it can occur,
# and each also under a binder and after a valid sibling branch.
BREACHES = {
    "empty branches": [GComm(A, B, ()), LSelect(B, ()), LRouterTransit(A, B, M1, ())],
    "duplicate labels": [GComm(A, B, TWICE), LBranch(A, tuple((l, LEND) for l, _ in TWICE)),
                         GRoutedTransit(A, B, C, M1, TWICE)],
    "self-communication": [GComm(A, A, one(M1, END)), GTransit(B, B, M1, one(M1, END))],
    "routed roles not distinct": [GRouted(A, B, A, one(M1, END)),
                                  GRouted(A, A, C, one(M1, END)),
                                  GRoutedTransit(A, B, B, M1, one(M1, END))],
    "router equal to peer": [LRoutedSelect(B, B, one(M1, LEND)),
                             LRoutedBranch(C, C, one(M1, LEND)),
                             LRouter(A, A, one(M1, LEND)),
                             LRouterTransit(B, B, M1, one(M1, LEND))],
    "chosen label missing": [GTransit(A, B, M2, one(M1, END)),
                             GRoutedTransit(A, B, C, M2, ((M1, END), (MsgLabel("m3"), END))),
                             LRouterTransit(A, B, M2, one(M1, LEND))],
    "unbound variable": [GComm(A, B, one(M1, GVar("x"))), LVar("x"),
                         GRec("x", GComm(A, B, ((M1, GVar("x")), (M2, GVar("y")))))],
    "non-contractive binder": [GRec("x", GVar("x")), GRec("x", GRec("y", GVar("x"))),
                               LRec("x", LRec("y", LVar("z"))),
                               GComm(A, B, one(M1, GRec("x", LRec("y", GVar("x")))))],
    "unknown node class": [Foreign(), GComm(A, B, one(M1, Foreign())),
                           LSelect(B, one(M1, ForeignLocal())),
                           GComm(A, B, ((M1, None), (M2, Foreign())))],
}


@pytest.mark.parametrize("breach", sorted(BREACHES))
def test_each_breach_raises_the_earlier_message(breach):
    for t in BREACHES[breach]:
        with pytest.raises(Exception):
            walker_oracle.validate(t)
        shapes = [t, GComm(B, C, ((M2, END), (M1, t))), GRec("w", GComm(B, C, one(M2, t)))]
        if isinstance(t, LocalType):
            shapes += [LBranch(C, ((M2, LEND), (M1, t))), LRec("w", LSelect(C, one(M2, t)))]
        for shape in shapes:
            _assert_agree(shape)


def test_the_first_breach_in_walk_order_is_the_one_reported():
    # `validate` checks a node before its branches, and the branches in
    # order; `participants` walks the last branch first.
    g = GComm(A, B, ((M1, GComm(C, C, one(M1, END))), (M2, GVar("x")),
                     (MsgLabel("m3"), GComm(A, B, one(M1, Foreign())))))
    _assert_agree(g)
    assert _outcome(validate, g)[1] == "communication endpoints must differ"
    two = GComm(A, B, ((M1, ForeignLocal()), (M2, Foreign())))
    _assert_agree(two)
    assert _outcome(participants, two)[1] == "not a global type: Foreign"
