import pytest

from routedmpst.core import (
    GComm, GEnd, GRec, GRouted, GVar, GlobalType, InvalidType, LEnd, LSelect, MsgLabel,
    Role, canonicalize, direct_send, free_vars, participants, pretty_global,
    pretty_local, routed_send, validate,
)

from canonical_oracle import NotRecursive, unfold_once
from corpus import A, B, G_TRAVEL, M1, P, Q, S, SR, one


def test_role_name_validation():
    Role("Svr_1")
    with pytest.raises(InvalidType):
        Role("1abc")
    with pytest.raises(InvalidType):
        Role("")


def test_action_label_invariants():
    with pytest.raises(InvalidType):
        direct_send(A, A, M1)
    with pytest.raises(InvalidType):
        routed_send(A, B, A, M1)
    lbl = routed_send(P, Q, SR, M1)
    assert lbl.subject == P and lbl.routed


def test_canonicalize_renames_binders():
    g = GRec("x", GComm(A, B, one(M1, GVar("x"))))
    out = canonicalize(g)
    assert isinstance(out, GRec) and out.var == "%0"
    assert out == GRec("%0", GComm(A, B, one(M1, GVar("%0"))))


def test_canonicalize_alpha_variants_of_travel_agency():
    def rename(g, old, new):
        if isinstance(g, GEnd):
            return g
        if isinstance(g, GVar):
            return GVar(new if g.var == old else g.var)
        if isinstance(g, GRec):
            return GRec(new if g.var == old else g.var, rename(g.body, old, new))
        return type(g)(*[getattr(g, f) for f in ("sender", "receiver")],
                       tuple((l, rename(c, old, new)) for l, c in g.branches))

    variant = rename(G_TRAVEL, "t", "loop")
    assert variant != G_TRAVEL
    assert canonicalize(variant) == canonicalize(G_TRAVEL)


def test_canonicalize_end_identity():
    assert canonicalize(GEnd()) == GEnd()


def test_canonicalize_orders_branches_and_is_idempotent():
    g = GComm(A, B, ((MsgLabel("Zz"), GEnd()), (MsgLabel("Aa"), GEnd())))
    once = canonicalize(g)
    assert [l.name for l, _ in once.branches] == ["Aa", "Zz"]
    assert canonicalize(once) == once


def test_canonicalize_drops_unused_binder():
    g = GRec("t", GComm(A, B, one(M1, GEnd())))
    assert canonicalize(g) == GComm(A, B, one(M1, GEnd()))


def test_canonicalize_rejects_open_types():
    # Free variables would keep their names in a canonical form; open
    # subterms are compared by `projection.merge`, not canonicalised.
    with pytest.raises(InvalidType):
        canonicalize(GComm(A, B, one(M1, GVar("x"))))


def test_unfold_once_substitutes_binder():
    g = GRec("t", GComm(A, B, one(M1, GVar("t"))))
    assert unfold_once(g) == GComm(A, B, one(M1, g))


def test_unfold_unused_binder_is_body():
    g = GRec("t", GComm(A, B, one(M1, GEnd())))
    assert unfold_once(g) == GComm(A, B, one(M1, GEnd()))


def test_unfold_requires_rec():
    with pytest.raises(NotRecursive):
        unfold_once(GEnd())


def test_unfold_then_canonicalize_stable_prefix():
    from corpus import load
    pingpong = load("PingPong")
    once = unfold_once(pingpong)
    assert isinstance(once, GComm)
    twice_src = once.branches[0][1].branches[0][1]  # continuation after PONG
    assert canonicalize(twice_src) == canonicalize(pingpong)
    assert isinstance(canonicalize(once), GComm)
    assert canonicalize(once).sender == canonicalize(unfold_once(pingpong)).sender


def test_participants_travel_agency():
    assert participants(G_TRAVEL) == frozenset({A, B, S})


def test_participants_end_empty():
    assert participants(GEnd()) == frozenset()


def test_participants_routed_includes_router():
    g = GRouted(P, Q, SR, one(M1, GEnd()))
    assert participants(g) == frozenset({P, Q, SR})


def test_participants_unaffected_by_rec():
    g = GRec("t", GComm(A, B, one(M1, GVar("t"))))
    assert participants(g) == participants(g.body)


def test_participants_of_a_deep_chain_needs_no_recursion():
    # 20,000 nested messages, far beyond the default recursion limit.
    roles = (A, B, S)
    g = GEnd()
    for i in range(20_000):
        g = GComm(roles[i % 3], roles[(i + 1) % 3], one(M1, g))
    assert participants(GRec("t", g)) == frozenset({A, B, S})


def test_branch_participants_subset_of_whole():
    for _, cont in G_TRAVEL.body.branches:
        assert participants(cont) <= participants(G_TRAVEL)


def test_validate_rejects_duplicate_labels():
    with pytest.raises(InvalidType):
        validate(GComm(A, B, ((M1, GEnd()), (M1, GEnd()))))


def test_validate_rejects_self_communication():
    with pytest.raises(InvalidType):
        validate(GComm(A, A, one(M1, GEnd())))


def test_validate_rejects_non_contractive_recursion():
    with pytest.raises(InvalidType):
        validate(GRec("t", GVar("t")))
    with pytest.raises(InvalidType):
        validate(GRec("t", GRec("u", GVar("t"))))


def test_validate_rejects_unbound_variable():
    with pytest.raises(InvalidType):
        validate(GVar("t"))
    validate(GVar("t"), allow_free=True)


def test_validate_rejects_router_overlap():
    with pytest.raises(InvalidType):
        validate(GRouted(P, Q, P, one(M1, GEnd())))


def test_validate_rejects_unknown_nodes():
    class GOther(GlobalType):
        pass
    with pytest.raises(InvalidType, match="unknown node GOther"):
        validate(GComm(A, B, one(M1, GOther())))


def test_free_vars():
    g = GRec("t", GComm(A, B, ((M1, GVar("t")), (MsgLabel("M2"), GVar("u")))))
    assert free_vars(g) == frozenset({"u"})


@pytest.mark.parametrize("printer, t", [
    (pretty_global, LEnd()),
    (pretty_local, GEnd()),
    (pretty_global, GRec("t", GComm(A, B, one(M1, LEnd())))),
    (pretty_local, LSelect(A, one(M1, GEnd()))),
], ids=["global-of-LEnd", "local-of-GEnd", "global-over-local", "local-over-global"])
def test_each_printer_rejects_the_other_grammar(printer, t):
    with pytest.raises(InvalidType):
        printer(t)
