"""Property tests: the generated-case suites plus smaller structural laws."""

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import property_suites
from trace_set_oracle import is_prefix_closed
from strategies import ROLE_POOL, global_types, local_types, mergeable_pairs

from routedmpst.core import canonicalize, participants
from routedmpst.analysis import global_traces
from routedmpst.projection import merge
from routedmpst.semantics import global_steps, local_steps

QUICK = settings(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.filter_too_much])

SELF = ROLE_POOL[0]


def test_suite_projection_encoding_commute():
    property_suites.suite_projection_encoding_commute()


def test_suite_encoding_defines_centroid():
    property_suites.suite_encoding_defines_centroid()


def test_suite_encoding_preserves_participants():
    property_suites.suite_encoding_preserves_participants()


def test_suite_encoding_preserves_privacy():
    property_suites.suite_encoding_preserves_privacy()


def test_suite_encoding_and_substitution_permute():
    property_suites.suite_encoding_and_substitution_permute()


def test_suite_projection_and_participation():
    property_suites.suite_projection_and_participation()


def test_suite_wf_implies_wf_routed():
    property_suites.suite_wf_implies_wf_routed_encoding()


@pytest.mark.xfail(
    strict=True,
    reason="the reverse direction of the well-formedness equivalence is "
           "refuted by generated counterexamples where the router's own "
           "plain projection is undefined; see notes and the pinned "
           "regression in test_wellformed")
def test_suite_wf_iff_wf_routed_full_equivalence():
    property_suites.suite_wf_iff_wf_routed_encoding()


def test_suite_preservation_and_progress():
    property_suites.suite_preservation_and_progress()


def test_suite_local_lts_preserves_merge():
    property_suites.suite_local_lts_preserves_merge()


def test_suite_trace_equivalence_on_canonical_types():
    property_suites.suite_trace_equivalence_canonical()


@QUICK
@given(global_types())
def test_canonicalize_idempotent(g):
    once = canonicalize(g)
    assert canonicalize(once) == once


@QUICK
@given(mergeable_pairs(SELF))
def test_merge_commutative_and_idempotent_up_to_canonicalize(pair):
    t1, t2 = pair
    merged = merge(t1, t2)
    assert canonicalize(merge(t2, t1)) == canonicalize(merged)
    assert canonicalize(merge(merged, merged)) == canonicalize(merged)


@QUICK
@given(global_types())
def test_global_steps_duplicate_free_and_stable(g):
    steps = global_steps(g)
    labels = [label for label, _ in steps]
    assert len(labels) == len(set(labels))
    assert steps == global_steps(g)


@QUICK
@given(local_types(SELF))
def test_local_steps_duplicate_free(t):
    steps = local_steps(t, SELF)
    labels = [label for label, _ in steps]
    assert len(labels) == len(set(labels))


@QUICK
@given(global_types(depth=2), st.integers(min_value=0, max_value=3))
def test_generated_trace_sets_prefix_closed(g, depth):
    assert is_prefix_closed(global_traces(g, depth))


@QUICK
@given(global_types())
def test_participants_of_branches_are_subsets(g):
    whole = participants(g)
    stack = [g]
    while stack:
        node = stack.pop()
        branches = getattr(node, "branches", None)
        if branches:
            for _, cont in branches:
                assert participants(cont) <= whole
                stack.append(cont)
        body = getattr(node, "body", None)
        if body is not None:
            stack.append(body)
