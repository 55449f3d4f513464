"""The pair search of `check_trace_equivalence` against the trace-set
definition (`trace_set_oracle`): same verdict, same witness, same side."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from routedmpst.analysis import FAIL, PASS, check_trace_equivalence
from routedmpst.core import Role, participants
from routedmpst.encoding import encode_global
from routedmpst.wellformed import check_wf

import trace_set_oracle
from mutation import GLOBAL_RULES, rules_disabled
from corpus import CORPUS_ROUTERS, load
from strategies import ROLE_POOL, global_types


def _agrees(g, depth, *disabled):
    with rules_disabled(*disabled):
        report = check_trace_equivalence(g, depth)
        difference = trace_set_oracle.trace_difference(g, depth)
    if difference is None:
        assert report.verdict == PASS, str(report.counterexample)
    else:
        witness, side = difference
        assert report.verdict == FAIL
        assert report.counterexample.trace == witness
        assert report.counterexample.detail == f"trace is {side}"


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_agrees_on_corpus_with_each_rule_disabled(name, encoded):
    g = load(name)
    if encoded:
        g = encode_global(g, Role(CORPUS_ROUTERS[name]))
    for rules in [()] + [(rule,) for rule in GLOBAL_RULES]:
        _agrees(g, 6, *rules)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(global_types(depth=4, roles=ROLE_POOL), st.data())
def test_agrees_on_well_formed_types_and_their_encodings(g, data):
    assume(check_wf(g).ok and participants(g))
    router = data.draw(st.sampled_from(sorted(participants(g), key=lambda r: r.name)))
    _agrees(g, 6)
    _agrees(encode_global(g, router), 6)
