import pytest

from routedmpst.core import GComm, GEnd, GRec, GVar, InvalidType, MsgLabel, Role, validate
from routedmpst.encoding import encode_global
from routedmpst.semantics import Tables
from routedmpst.wellformed import check_wf, check_wf_routed, is_centroid

from corpus import A, B, C, G1_MERGE, G2_MERGE, G_TRAVEL, G_TRAVEL_ROUTED, S


def test_centroid_of_encoded_travel_agency():
    assert is_centroid(G_TRAVEL_ROUTED, S).ok
    assert is_centroid(encode_global(G_TRAVEL, S), S).ok


def test_centroid_fails_on_plain_travel_agency_with_witness():
    result = is_centroid(G_TRAVEL, S)
    assert not result.ok
    # The outermost violation is the opening interaction between B and A.
    assert result.witness_path == ()
    assert "B->A" in result.witness


def test_centroid_violation_three_choices_deep_reports_its_path_from_the_root():
    def choice(sender, receiver, go, inner):
        return GComm(sender, receiver, ((MsgLabel("Stay"), GEnd()), (MsgLabel(go), inner)))
    bypass = GComm(A, B, ((MsgLabel("Bypass"), GEnd()),))
    g = choice(S, A, "Go1", choice(A, S, "Go2", choice(S, B, "Go3", bypass)))
    result = is_centroid(g, S)
    assert (result.ok, result.witness_path, result.witness) == \
        (False, ("Go1", "Go2", "Go3"), "A->B does not involve S")
    # (A and B cannot merge their `end` and `Go` branches either.)
    assert check_wf_routed(g, S).describe().split("; ")[-1] == \
        "centroid violated at Go1/Go2/Go3: A->B does not involve S"


def test_centroid_end_axiom():
    assert is_centroid(GEnd(), Role("anyone")).ok


def test_check_wf_travel_agency():
    assert check_wf(G_TRAVEL).ok


def test_check_wf_merge_counterexample_names_role():
    report = check_wf(G2_MERGE)
    assert not report.ok
    assert [name for name, _ in report.projection_failures] == ["C"]
    assert check_wf(G1_MERGE).ok


def test_check_wf_end():
    assert check_wf(GEnd()).ok


@pytest.mark.parametrize("g", [
    GComm(A, B, ((MsgLabel("m"), GRec("r0", GVar("r0"))),)),  # non-contractive
    GComm(A, B, ((MsgLabel("m"), GVar("r0")),)),  # open
    GComm(A, A, ((MsgLabel("m"), GEnd()),)),  # a role sends to itself
])
def test_check_wf_rejects_an_invalid_type_as_validate_does(g):
    # `wf` is never `ok` on a type that `validate`, and so every checker,
    # rejects: both checks raise its InvalidType, with or without tables.
    with pytest.raises(InvalidType) as expected:
        validate(g)
    for check in (lambda **kw: check_wf(g, **kw), lambda **kw: check_wf_routed(g, S, **kw)):
        for kw in ({}, {"tables": Tables()}):
            with pytest.raises(InvalidType) as raised:
                check(**kw)
            assert str(raised.value) == str(expected.value)


def test_check_wf_routed_encoded_travel_agency():
    assert check_wf_routed(encode_global(G_TRAVEL, S), S).ok


def test_check_wf_routed_fails_without_centroid():
    report = check_wf_routed(G_TRAVEL, S)
    assert not report.ok
    assert report.centroid is not None and not report.centroid.ok
    assert not report.projection_failures  # projections all exist


def test_check_wf_routed_end():
    assert check_wf_routed(GEnd(), Role("any")).ok


def test_wf_report_describe_mentions_causes():
    report = check_wf_routed(G2_MERGE, S)
    text = report.describe()
    assert "projection undefined for C" in text
    assert "centroid" in text


def test_known_gap_routed_wf_does_not_imply_plain_wf():
    # Pinned counterexample to the reverse direction of the well-formedness
    # equivalence: C cannot project the plain protocol (it would have to
    # merge `end` with a branch), but as the router of the encoded protocol
    # it forwards both branches without any merge, so the routed check
    # succeeds.  Found by the generator suites; kept so the gap stays
    # visible.
    from routedmpst.core import GComm, GEnd, MsgLabel
    from routedmpst.encoding import encode_global
    m1, m2 = MsgLabel("m1"), MsgLabel("m2")
    g = GComm(A, B, ((m1, GComm(A, B, (
        (m1, GEnd()),
        (m2, GComm(A, C, ((m1, GEnd()),))),
    ))),))
    assert not check_wf(g).ok
    assert check_wf_routed(encode_global(g, C), C).ok


def test_a_merge_failure_keeps_both_local_types_on_one_line():
    # C must merge a receive from A with a two-way choice from B, which the
    # printer spreads over lines: the report collapses each side's
    # whitespace and keeps both on the line of their role.
    x, y, p, q = (MsgLabel(n) for n in ("x", "y", "p", "q"))
    choice = GComm(B, C, ((p, GEnd()), (q, GEnd())))
    g = GComm(A, B, ((x, GComm(A, C, ((x, GEnd()),))), (y, choice)))
    report = check_wf(g)
    assert report.projection_failures == (
        ("C", "cannot merge: A?x . end vs B?{ p: end, q: end }"),)
    assert report.describe() == \
        "projection undefined for C: cannot merge: A?x . end vs B?{ p: end, q: end }"


def test_a_merge_failure_with_a_reason_keeps_it_on_the_line():
    x, y = MsgLabel("x"), MsgLabel("y")
    g = GComm(A, B, ((x, GComm(A, C, ((x, GEnd()),))),
                     (y, GComm(A, C, ((MsgLabel("x", ("int",)), GEnd()),)))))
    assert check_wf(g).projection_failures == (
        ("C", "cannot merge (payload sorts differ on label x): A?x . end vs A?x(int) . end"),)
