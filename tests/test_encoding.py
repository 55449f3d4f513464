import pytest
import warnings

from routedmpst.core import (
    GComm, GEnd, GRouted, GRoutedTransit, GTransit, LBranch, LEnd,
    LRoutedSelect, LSelect, canonicalize, direct_recv, direct_send,
    routed_send,
)
from routedmpst.encoding import (
    AlreadyRouted, NotCanonical, RouterPerspectiveWarning, encode_global,
    encode_label, encode_local,
)
from routedmpst.projection import project

from corpus import (
    A, AVAILABLE, B, FULL, G_EX, G_EX_ROUTED, G_TRAVEL, G_TRAVEL_ROUTED, M1,
    M2, P, Q, QUOTE, S, SR, one,
)


def test_encode_travel_agency_matches_reference_routed_term():
    assert canonicalize(encode_global(G_TRAVEL, S)) == canonicalize(G_TRAVEL_ROUTED)


def test_encode_end_fixed_point():
    assert encode_global(GEnd(), SR) == GEnd()


def test_encode_two_message_example():
    assert encode_global(G_EX, SR) == G_EX_ROUTED


def test_encode_rejects_routed_input():
    with pytest.raises(NotCanonical):
        encode_global(G_EX_ROUTED, SR)
    with pytest.raises(NotCanonical):
        encode_global(GRoutedTransit(P, Q, SR, M1, one(M1, GEnd())), SR)


def test_encode_transit_away_from_router_becomes_routed_transit():
    # p->q [M1 in flight], then s->q: the reachable state after p's send.
    state = GTransit(P, Q, M1, one(M1, GComm(SR, Q, one(M2, GEnd()))))
    assert encode_global(state, SR) == GRoutedTransit(
        P, Q, SR, M1, one(M1, GComm(SR, Q, one(M2, GEnd()))))


def test_encode_transit_touching_router_stays_direct():
    state = GTransit(SR, Q, M2, one(M2, GComm(P, Q, one(M1, GEnd()))))
    assert encode_global(state, SR) == GTransit(
        SR, Q, M2, one(M2, GRouted(P, Q, SR, one(M1, GEnd()))))


def test_encode_local_reroutes_client_to_client():
    local = LSelect(B, one(QUOTE, LEnd()))
    assert encode_local(local, A, S) == LRoutedSelect(B, S, one(QUOTE, LEnd()))


def test_encode_local_end():
    assert encode_local(LEnd(), Q, SR) == LEnd()


def test_encode_local_keeps_router_adjacent_interactions_direct():
    local = LBranch(S, ((AVAILABLE, LEnd()), (FULL, LEnd())))
    assert encode_local(local, A, S) == local


def test_encode_local_router_perspective_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        encode_local(LSelect(A, one(QUOTE, LEnd())), S, S)
    assert any(issubclass(w.category, RouterPerspectiveWarning) for w in caught)


def test_encode_label_reroutes_when_router_not_endpoint():
    assert encode_label(direct_send(P, Q, M1), SR) == routed_send(P, Q, SR, M1)


def test_encode_label_keeps_router_endpoint_actions():
    lbl = direct_send(SR, Q, M2)
    assert encode_label(lbl, SR) == lbl
    recv = direct_recv(P, SR, M1)
    assert encode_label(recv, SR) == recv


def test_encode_label_rejects_routed_input():
    with pytest.raises(AlreadyRouted):
        encode_label(routed_send(P, Q, SR, M1), SR)


def test_projection_encoding_correspondence_on_travel_agency():
    for role in (A, B):
        lhs = project(encode_global(G_TRAVEL, S), role)
        rhs = encode_local(project(G_TRAVEL, role), role, S)
        assert canonicalize(lhs) == canonicalize(rhs)
