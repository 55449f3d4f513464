"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its timing.  Tolerances (depths, state caps, runtimes,
case counts) are pinned here.
"""

import time

import pytest

from routedmpst.analysis import (
    FAIL, check_deadlock_freedom, check_encoding_bisim,
    check_trace_equivalence, global_traces,
)
from routedmpst.core import (
    Role, canonicalize, direct_recv, direct_send, routed_recv,
    routed_send,
)
from routedmpst.efsm import build_efsm
from routedmpst.encoding import encode_global
from routedmpst.projection import MergeFailure, project
from routedmpst.semantics import global_steps
from routedmpst.simulator import (
    DATA, SimConfig, run_session, validate_log,
)
from routedmpst.scribble import elaborate, parse_module

import naive_enumerator
import property_suites
from mutation import rules_disabled
from policies import FixedScript
from corpus import (
    A, B, BYE, C, CORPUS_ROUTERS, G1_MERGE, G2_MERGE, G_EX, G_TRAVEL,
    G_TRAVEL_ROUTED, HELLO, M1, M2, P, PROTOCOL_DIR, Q, S, SR, load,
)

DEPTH = 8
STATE_CAP = 10 ** 6
PER_CHECK_BUDGET = 30.0


def _report(criterion: str, ok: bool, elapsed: float, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {criterion}: {verdict} in {elapsed:.2f}s{suffix}")


def test_criterion_1_corpus_parse_and_elaborate():
    start = time.perf_counter()
    elaborated = {}
    for name in CORPUS_ROUTERS:
        decls = parse_module((PROTOCOL_DIR / f"{name}.scr").read_text(), name)
        elaborated[name] = elaborate(decls, name)
    travel_ok = canonicalize(elaborated["TravelAgency"]) == canonicalize(G_TRAVEL)
    elapsed = time.perf_counter() - start
    ok = travel_ok and elapsed < 1.0
    _report("1 (corpus parse/elaborate)", ok, elapsed)
    assert travel_ok, "TravelAgency must elaborate to the reference term"
    assert elapsed < 1.0, f"parse+elaborate took {elapsed:.2f}s"


def test_criterion_2_efsm_fidelity():
    start = time.perf_counter()
    machine = build_efsm(project(load("TravelAgency"), A), A)
    expected = {
        (1, "B?Suggest", 2), (2, "S!Query", 3), (3, "S?Full", 4),
        (4, "B!Full", 1), (3, "S?Available", 5), (5, "B!Quote", 6),
        (6, "B?Ok", 7), (6, "B?No", 8), (7, "S!Confirm", 9), (8, "S!Reject", 9),
    }
    got = {(t.source, t.display(A), t.target) for t in machine.transitions}
    ok = len(machine.states) == 9 and got == expected
    _report("2 (EFSM fidelity)", ok, time.perf_counter() - start)
    assert len(machine.states) == 9
    assert got == expected


def test_criterion_3_encoding_fidelity():
    start = time.perf_counter()
    travel_ok = canonicalize(encode_global(G_TRAVEL, S)) == canonicalize(G_TRAVEL_ROUTED)
    from corpus import G_EX_ROUTED
    example_ok = encode_global(G_EX, SR) == G_EX_ROUTED
    _report("3 (encoding fidelity)", travel_ok and example_ok,
            time.perf_counter() - start)
    assert travel_ok and example_ok


def test_criterion_4_merge_example():
    start = time.perf_counter()
    from routedmpst.core import LBranch, LEnd
    good = project(G1_MERGE, C) == LBranch(A, ((HELLO, LEnd()), (BYE, LEnd())))
    try:
        project(G2_MERGE, C)
        bad_fails = False
    except MergeFailure:
        bad_fails = True
    _report("4 (merge example)", good and bad_fails, time.perf_counter() - start)
    assert good and bad_fails


def test_criterion_5_theorem_instances_at_desk_scale():
    all_ok = True
    for name, router_name in CORPUS_ROUTERS.items():
        g = load(name)
        router = Role(router_name)
        encoded = encode_global(g, router)
        checks = (
            ("TE", lambda: check_trace_equivalence(g, DEPTH, STATE_CAP)),
            ("TE-encoded", lambda: check_trace_equivalence(encoded, DEPTH, STATE_CAP)),
            ("DF", lambda: check_deadlock_freedom(encoded, router, STATE_CAP)),
            ("bisim", lambda: check_encoding_bisim(g, router, DEPTH, STATE_CAP)),
        )
        for label, run in checks:
            start = time.perf_counter()
            report = run()
            elapsed = time.perf_counter() - start
            ok = report.passed and elapsed < PER_CHECK_BUDGET
            all_ok = all_ok and ok
            assert report.passed, f"{name}/{label}: {report.verdict}"
            assert elapsed < PER_CHECK_BUDGET, f"{name}/{label} took {elapsed:.1f}s"
    _report("5 (theorem instances)", all_ok, 0.0,
            f"4 protocols x 4 checks at depth {DEPTH}")


def test_criterion_6_no_over_serialisation():
    start = time.perf_counter()
    encoded = encode_global(G_EX, SR)
    initial = {label for label, _ in global_steps(encoded)}
    early_send = direct_send(SR, Q, M2) in initial
    reference_trace = (
        direct_send(SR, Q, M2),
        routed_send(P, Q, SR, M1),
        routed_recv(P, Q, SR, M1),
        direct_recv(SR, Q, M2),
    )
    accepted = reference_trace in global_traces(encoded, 4)
    _report("6 (no over-serialisation)", early_send and accepted,
            time.perf_counter() - start)
    assert early_send and accepted


def test_criterion_7_property_suites():
    start = time.perf_counter()
    for suite in property_suites.PASSING_SUITES:
        suite()
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report("7 (property suites)", ok, elapsed,
            f"{len(property_suites.PASSING_SUITES)} suites x >=200 cases")
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"


@pytest.mark.xfail(
    strict=True,
    reason="the full wf <=> wf^s equivalence (criterion 7's verbatim "
           "entry) is refuted in its reverse direction by generated "
           "counterexamples; the forward direction passes as part of the "
           "suites above.  Analysis in the decisions notes; counterexample "
           "pinned in test_wellformed.")
def test_criterion_7_wf_equivalence_verbatim():
    start = time.perf_counter()
    try:
        property_suites.suite_wf_iff_wf_routed_encoding()
    except AssertionError:
        _report("7 (wf <=> wf^s verbatim)", False, time.perf_counter() - start,
                "reverse direction refuted; documented defect")
        raise


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    for name in CORPUS_ROUTERS:
        g = load(name)
        assert global_traces(g, 6).traces == frozenset(naive_enumerator.traces(g, 6)), name
    _report("8 (oracle equivalence)", True, time.perf_counter() - start,
            "depth 6, all corpus protocols")


def test_criterion_9_simulator():
    start = time.perf_counter()
    pingpong = load("PingPong")
    sp = Role("S")
    scripts = lambda: {sp: FixedScript(["PONG"] * 99 + ["BYE"])}
    first = run_session(pingpong, sp, scripts(), SimConfig(seed=9))
    second = run_session(pingpong, sp, scripts(), SimConfig(seed=9))
    count_ok = len(first.data_records) == 200
    deterministic = first == second

    encoded = encode_global(G_TRAVEL, S)
    transparent = True
    for seed in range(3):
        direct = run_session(G_TRAVEL, S, None, SimConfig(seed=seed))
        routed = run_session(encoded, S, None, SimConfig(seed=seed))
        transparent = transparent and all(
            dict(direct.observations)[r] == dict(routed.observations)[r] for r in (A, B, S))

    cancelled = run_session(G_TRAVEL, S, None,
                            SimConfig(seed=1, cancel_injection=(A, 3)))
    notified_ok = cancelled.cancellation is not None and \
        cancelled.cancellation.notified == frozenset({B, S})
    first_cancel = min(r.step for r in cancelled.records
                       if r.envelope.kind != DATA)
    halts = all(r.step < first_cancel for r in cancelled.records
                if r.envelope.kind == DATA)

    validates = all(
        validate_log(src, Role(router), run_session(src, Role(router), None,
                                                    SimConfig(seed=4))) is True
        for name, router in CORPUS_ROUTERS.items()
        for src in (load(name), encode_global(load(name), Role(router)))
    ) and validate_log(pingpong, sp, first) is True

    ok = count_ok and deterministic and transparent and notified_ok and halts and validates
    _report("9 (simulator)", ok, time.perf_counter() - start)
    assert count_ok and deterministic
    assert transparent
    assert notified_ok and halts
    assert validates


def test_criterion_10_mutation_sensitivity():
    start = time.perf_counter()
    # Disabling the causal-independence rule must surface as a trace
    # inequivalence somewhere in criterion 5's runs, with a counterexample.
    te_failures = []
    for name, router_name in CORPUS_ROUTERS.items():
        g = load(name)
        encoded = encode_global(g, Role(router_name))
        for source in (g, encoded):
            with rules_disabled("Gr4"):
                report = check_trace_equivalence(source, DEPTH, STATE_CAP)
            if report.verdict == FAIL:
                te_failures.append((name, report))
    te_ok = bool(te_failures) and all(r.counterexample is not None
                                      for _, r in te_failures)

    with rules_disabled("Gr7"):
        df = check_deadlock_freedom(encode_global(G_TRAVEL, S), S)
    df_ok = df.verdict == FAIL and df.counterexample is not None

    _report("10 (mutation sensitivity)", te_ok and df_ok,
            time.perf_counter() - start,
            f"Gr4 breaks TE on {sorted({n for n, _ in te_failures})}, Gr7 breaks DF")
    assert te_ok, "disabling Gr4 must break trace equivalence with a witness"
    assert df_ok, "disabling Gr7 must break deadlock freedom"
