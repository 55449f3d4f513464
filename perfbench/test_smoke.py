"""Smoke test of the benchmark harness on one tiny input per workload.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import random

import pytest

import gen
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_ops() -> dict[str, list[run.Op]]:
    corpus = run._corpus()
    pp = corpus["PingPong"]
    return {
        "verify": [run.Op("verify", gen.gap("_00"), depth=4)],
        "conform": [run.Op("simulate", pp, rounds=1, seed=3, scheduler="seeded-random"),
                    run.Op("mutated", pp, rounds=2, seed=3, scheduler="round-robin")],
        "frontend": [run.Op("frontend", gen.long(5, "_00")),
                     run.Op("frontend", corpus["TravelAgency"])],
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every tiny op run once untraced and once traced, plus calibration."""
    env = dict(os.environ)
    work = tmp_path_factory.mktemp("perfbench")
    ops = tiny_ops()
    calib = run.calibration()
    for i, op in enumerate([op for group in ops.values() for op in group] + calib):
        op.file = work / f"op{i}.scr"
        op.file.write_text(op.protocol.text)
        if op.kind == "mutated":
            run.make_log(op, env)
    result = {}
    for workload, group in ops.items():
        result[workload] = [(op, run.run_worker(run.job_for(op, i, "cli"), env, 60),
                             run.run_worker(run.job_for(op, i, "traced"), env, 60))
                            for i, op in enumerate(group)]
    result["calibration"] = [(op, run.run_worker(run.job_for(op, 0, "traced"), env, 60))
                             for op in calib]
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_known_answers_hold_untraced_and_traced(outputs, workload):
    for op, plain, traced in outputs[workload]:
        for out in (plain, traced):
            assert "error" not in out["result"], out["result"]
            assert run.check(op, out["result"]) is None, op.label


def test_wrong_answers_are_caught(outputs):
    (op, plain, _), = outputs["verify"]
    flipped = dict(plain["result"],
                   stdout=plain["result"]["stdout"].replace("verdict=fail", "verdict=pass"))
    assert run.check(op, flipped) is not None
    for op, plain, _ in outputs["conform"]:
        if op.kind == "mutated":
            assert run.check(op, dict(plain["result"], violation=0)) is not None
    for op, plain, _ in outputs["frontend"]:
        if op.protocol.name == "TravelAgency":
            result = json.loads(json.dumps(plain["result"]))
            result["skeletons"]["S"]["state.ts"] += " "
            assert run.check(op, result) is not None


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_reported(outputs, workload):
    records = [run._record(op, plain)[0] for op, plain, _ in outputs[workload]]
    metrics, human = run.end_to_end(workload, records)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0 for m in metrics.values())
    assert any(line.startswith(run.OP_NAMES[workload]) for line in human)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_per_layer_metric_is_reported(outputs, workload):
    traced = [(op, out) for op, _, out in outputs[workload]]
    metrics = run.per_layer(traced, outputs["calibration"], [0.0])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}


def test_spans_nest_under_op_and_probe_roots(outputs):
    for _, _, out in outputs["frontend"]:
        spans = out["spans"]
        roots = {i: s[0] for i, s in enumerate(spans) if s[3] is None}
        assert sorted(roots.values()) == ["op", "probe"]
        assert all(s[3] in roots and s[1] <= s[2] for s in spans if s[3] is not None)
        under_op = {s[0] for s in spans if roots.get(s[3]) == "op"}
        assert {"scribble.parse_module", "efsm.build_efsm"} <= under_op


def test_pool_is_seeded():
    a = [op.label for op in run.pool("conform", random.Random(5))]
    b = [op.label for op in run.pool("conform", random.Random(5))]
    c = [op.label for op in run.pool("conform", random.Random(6))]
    assert a == b and a != c
