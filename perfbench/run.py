"""Benchmark: cold-process `verify`, `simulate` and frontend ops.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify|conform|frontend \
        --seed N --seconds S --trace 0|1

Every op runs in a fresh worker interpreter (perfbench/worker.py), one at a
time: a closed loop with one client.  A run goes through its workload's
pool of ops in whole rounds, each round in a seeded order, until at least
MIN_OPS ops and --seconds have passed.  Every op's output is checked against
a known answer; a wrong answer makes the run fail.

The seed draws the order of each round, a label suffix for the generated
protocols, and the simulator's seed.  Sizes, depths, round counts and
schedulers are enumerated in the pool, so every seed does about the same
work.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op of one
round twice, through the layer calls without spans and then traced; it
prints the per-layer metrics and writes the spans to perfbench/out/.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROTOCOLS = ROOT / "protocols"
GOLDEN = ROOT / "tests" / "golden"
CORPUS_PY = ROOT / "tests" / "corpus.py"

MIN_OPS = 40          # so that at least ten samples lie beyond the tail
TAIL_PERCENTILE = 75  # the highest percentile with ten samples beyond it at MIN_OPS
OP_LIMIT_S = 60.0     # per-op time limit; a killed op counts as failed
DEADLINE_S = 160.0    # start no op after this, so a run ends within 180 s
PROBE_DEPTH = 6       # reachable-state depth of the conform probes
CONFIG_CAP = 100      # configurations visited by the configuration probe

WORKLOADS = ("verify", "conform", "frontend")
SCHEDULERS = ("round-robin", "seeded-random")


class Op:
    """One pool entry: the job the worker runs and the answer it must give."""

    def __init__(self, kind: str, protocol: gen.Protocol, **params):
        self.kind = kind
        self.protocol = protocol
        self.params = params
        self.file: Path | None = None

    @property
    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}:{self.protocol.family}({extra})"


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _corpus() -> dict[str, gen.Protocol]:
    """The corpus protocols with their routers from tests/corpus.py, read
    without importing the package into this process."""
    tree = ast.parse(CORPUS_PY.read_text())
    routers = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "CORPUS_ROUTERS")
    return {name: gen.corpus(name, (PROTOCOLS / f"{name}.scr").read_text(), router)
            for name, router in routers.items()}


def pool(workload: str, rng: random.Random) -> list[Op]:
    tag = f"_{rng.randrange(100):02d}"
    corpus = _corpus()
    if workload == "verify":
        ops = [Op("verify", corpus[name], depth=d)
               for name in ("TravelAgency", "Game", "PingPong") for d in (6, 8, 10, 12)]
        ops.append(Op("verify", corpus["Battleships"], depth=12))
        ops += [Op("verify", gen.ring(n, tag), depth=d) for n, d in ((3, 10), (5, 8), (8, 6))]
        ops += [Op("verify", gen.fan(n, tag), depth=d) for n, d in ((2, 10), (3, 8), (4, 6))]
        ops.append(Op("verify", gen.gap(tag), depth=6))
        ops.append(Op("verify", gen.wide(2, tag), depth=6, state_cap=500))
    elif workload == "conform":
        # Battleships costs ~70 ms per envelope, the others ~1 ms: its
        # sessions stop at 4 rounds so that one round of the pool stays short.
        sessions = [(name, r) for name in corpus for r in (1, 2, 4, 8)
                    if name != "Battleships" or r < 8]
        ops = [Op("simulate", corpus[name], rounds=r, scheduler=sched)
               for name, r in sessions for sched in SCHEDULERS]
        ops += [Op("mutated", corpus[name], rounds=r, scheduler=sched)
                for name, r, sched in (("TravelAgency", 8, "round-robin"),
                                       ("Game", 8, "seeded-random"),
                                       ("PingPong", 8, "round-robin"),
                                       ("Battleships", 2, "round-robin"))]
        for op in ops:
            op.params["seed"] = rng.randrange(1000)
    else:
        ops = [Op("frontend", gen.long(n, tag)) for n in (50, 100, 200, 300, 450)]
        ops += [Op("frontend", gen.wide(k, tag)) for k in (8, 16, 24, 32, 48)]
        ops += [Op("frontend", gen.ring(n, tag)) for n in (8, 12, 16, 20, 24, 32)]
        ops += [Op("frontend", p) for p in corpus.values()]
    return ops


def calibration() -> list[Op]:
    """Traced ops on PingPong, the smallest corpus protocol.  They time the
    layers a workload never calls, which then read near zero."""
    pp = _corpus()["PingPong"]
    return [Op("verify", pp, depth=6), Op("simulate", pp, rounds=2, seed=0,
                                          scheduler="round-robin"),
            Op("frontend", pp)]


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


def job_for(op: Op, op_id: int, mode: str) -> dict:
    """The worker's job.  `mode` is "cli" (through routedmpst.cli.main, for
    the kinds the CLI has), "layers" (the same layer calls the traced path
    makes, without spans) or "traced"."""
    p, params = op.protocol, op.params
    if op.kind not in ("verify", "simulate") and mode == "cli":
        mode = "layers"
    job = {"src": str(SRC), "file": str(op.file), "protocol": p.name,
           "router": p.router, "kind": op.kind, "mode": mode, "op_id": op_id,
           "probe": mode == "traced" and op.kind != "frontend",
           "probe_depth": params.get("depth", PROBE_DEPTH), "config_cap": CONFIG_CAP}
    if op.kind == "verify":
        cap = params.get("state_cap")
        job.update(depth=params["depth"], state_cap=cap or 10 ** 6,
                   argv=["verify", str(op.file), p.name, "--router", p.router,
                         "--depth", str(params["depth"])]
                   + (["--state-cap", str(cap)] if cap else []))
    elif op.kind == "simulate":
        job.update(rounds=params["rounds"], seed=params["seed"],
                   scheduler=params["scheduler"],
                   argv=["simulate", str(op.file), p.name, "--router", p.router,
                         "--rounds", str(params["rounds"]), "--seed", str(params["seed"]),
                         "--scheduler", params["scheduler"]])
    elif op.kind == "mutated":
        job["log"] = str(op.file.with_suffix(".log"))
    elif p.name == "TravelAgency":
        job["skeleton_roles"] = ["B", "S"]
    return job


def run_worker(job: dict, env: dict, timeout: float) -> dict:
    """Spawn one worker, wait for it, and return its result.  A raise, a
    crash or a timeout comes back as {"error": ...}."""
    spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"op_s": OP_LIMIT_S, "result": {"error": f"timeout after {timeout:.0f}s"}}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"op_s": OP_LIMIT_S, "result": {
            "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}}
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawn
    return out


def _data_lines(stdout: str) -> int:
    return sum(1 for line in stdout.splitlines() if ",data," in line)


def make_log(op: Op, env: dict) -> None:
    """Write the mutated-log input of `op`: a simulated session whose final
    data envelope is relabelled to a label the protocol does not have."""
    params = dict(op.params)
    sim = Op("simulate", op.protocol, **params)
    sim.file = op.file
    out = run_worker(job_for(sim, -1, "cli"), env, OP_LIMIT_S)
    stdout = out["result"].get("stdout", "")
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    last = max(i for i, line in enumerate(lines) if ",data," in line)
    fields = lines[last].split(",")
    lines[last] = ",".join(fields[:4] + ["Bogus"])
    op.file.with_suffix(".log").write_text("\n".join(lines) + "\n")


def check(op: Op, result: dict) -> str | None:
    """Compare one op's output with its known answer; None when it matches."""
    p = op.protocol
    if op.kind == "verify":
        blocks = result["stdout"].split("check=")[1:]
        got = {}
        for block in blocks:
            name, *lines = block.strip().splitlines()
            fields = dict(line.split("=", 1) for line in lines)
            got[name] = fields["verdict"]
            if ("counterexample" in fields) != (fields["verdict"] == gen.FAIL):
                return f"{name}: counterexample iff fail"
        if got != p.verdicts:
            return f"verdicts {got} != {p.verdicts}"
        want_code = 0 if all(v == gen.PASS for v in got.values()) else 1
        if result["code"] != want_code:
            return f"exit code {result['code']} != {want_code}"
    elif op.kind == "simulate":
        if result["code"] != 0 or not result["stdout"].endswith("# conformance=ok\n"):
            return "session not conformant"
    elif op.kind == "mutated":
        if result["violation"] != result["envelopes"] - 1:
            return f"violation at {result['violation']}, want {result['envelopes'] - 1}"
    else:
        got = (result["wf"], result["wf_router"], result["wf_router_encoded"])
        if got != (p.wf, p.wf_router, True):
            return f"wf, wf^router, wf^router(encoded) = {got}"
        for role, n in p.efsm_states.items():
            if result["efsm_states"][role] != n:
                return f"EFSM of {role} has {result['efsm_states'][role]} states, want {n}"
        for role, files in result["skeletons"].items():
            flavor = "server" if role == p.router else "client"
            for name, text in files.items():
                golden = GOLDEN / f"travel_{role}_{flavor}_{name.replace('.ts', '')}.txt"
                if text != golden.read_text():
                    return f"skeleton {role}/{name} differs from {golden.name}"
    return None


def work_units(op: Op, result: dict) -> float:
    """Verdicts for verify, validated data envelopes for conform, KiB of
    source for the frontend."""
    if op.kind == "verify":
        return 4
    if op.kind == "simulate":
        return _data_lines(result["stdout"])
    if op.kind == "mutated":
        return result["envelopes"]
    return len(op.protocol.text.encode()) / 1024


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all order
    statistics weighted by a beta density centred on rank p/100 * n.  It is
    steadier than a single order statistic when the samples near that rank
    come from few distinct ops."""
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    def mass(lo: float, hi: float, steps: int = 16) -> float:  # Simpson's rule
        h = (hi - lo) / steps
        return h / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(lo + k * h)
                           for k in range(steps + 1))

    weights = [mass(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


OP_NAMES = {"verify": "verdict_s", "conform": "session_s", "frontend": "pipeline_s"}
WORK_NAMES = {"verify": "verdicts_per_s", "conform": "envelopes_per_s",
              "frontend": "source_kib_per_s"}


def end_to_end(workload: str, records: list[dict]) -> tuple[dict, list[str]]:
    times = [r["op_s"] if r["ok"] else OP_LIMIT_S for r in records]
    done = [r for r in records if r["ok"]]
    values = {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "op_s.p50": (percentile(times, 50), "s"),
        "op_s.tail": (percentile(times, TAIL_PERCENTILE), "s"),
        "work_per_s": (sum(r["work"] for r in done) / sum(r["op_s"] for r in done), "1/s"),
        "peak_rss_mib": (max(r["peak_rss_kib"] for r in done) / 1024, "MiB"),
    }
    name = OP_NAMES[workload]
    failed = len(records) - len(done)
    human = [
        f"{name}.p50 = {values['op_s.p50'][0]:.4f} s  (op_s.p50, n={len(times)})",
        f"{name}.tail = {values['op_s.tail'][0]:.4f} s  "
        f"(op_s.tail, Harrell-Davis p{TAIL_PERCENTILE}, n={len(times)})",
        f"{WORK_NAMES[workload]} = {values['work_per_s'][0]:.4f} 1/s  (work_per_s)",
        f"setup_s = {values['setup_s'][0]:.4f} s  (median of {len(done)} spawns)",
        f"peak_rss_mib = {values['peak_rss_mib'][0]:.2f} MiB",
        f"failed_ratio = {failed}/{len(records)}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, human


LAYER_MS = (
    "analysis.trace_equivalence", "analysis.trace_equivalence_encoded",
    "analysis.deadlock_freedom", "analysis.encoding_bisim",
    "scribble.parse_module", "scribble.elaborate", "core.validate",
    "projection.project", "wellformed.check_wf", "wellformed.check_wf_routed",
    "encoding.encode_global", "efsm.build_efsm", "efsm.render",
    "codegen.emit_skeleton", "simulator.run_session", "simulator.validate_log",
)
PER_CALL = ("semantics.global_steps", "core.canonicalize", "semantics.config_steps")
COUNTS = ("analysis.states", "analysis.trace_count", "semantics.global_states",
          "semantics.config_states", "simulator.envelopes", "scribble.source_kb",
          "core.global_nodes", "projection.local_nodes", "efsm.states",
          "codegen.output_kb")


def op_counts(op: Op, out: dict) -> dict:
    """Counts of one traced op, in whole numbers."""
    result = out["result"]
    counts = dict(out.get("counts", {}))
    if op.kind == "verify":
        counts["analysis.states"] = result["analysis_states"]
    elif op.kind == "simulate":
        counts["simulator.envelopes"] = _data_lines(result["stdout"])
    elif op.kind == "mutated":
        counts["simulator.envelopes"] = result["envelopes"]
    else:
        counts.update({"projection.local_nodes": result["local_nodes"],
                       "efsm.states": result["efsm_total"],
                       "codegen.output_bytes": result["output_bytes"]})
    return counts


def layer_times(out: dict) -> dict[str, float]:
    """Per-op duration of each layer span, in ms, summed over its calls."""
    totals: dict[str, float] = {}
    for name, start, end, _parent, _op in out["spans"]:
        if name in LAYER_MS:
            totals[name] = totals.get(name, 0.0) + (end - start) * 1000
    return totals


def per_layer(traced: list[tuple[Op, dict]], calib: list[tuple[Op, dict]],
              overhead: list[float]) -> dict:
    """Each layer from the workload's own ops where any of them calls it,
    otherwise from the calibration ops."""
    def source(has) -> list[tuple[Op, dict]]:
        own = [(op, out) for op, out in traced if has(op, out)]
        return own or [(op, out) for op, out in calib if has(op, out)]

    metrics = {}
    for name in LAYER_MS:
        rows = source(lambda op, out: name in layer_times(out))
        metrics[f"{name}.ms"] = (statistics.median(layer_times(o)[name] for _, o in rows), "ms")
    rows = source(lambda op, out: op_counts(op, out).get("simulator.envelopes")
                  and "simulator.validate_log" in layer_times(out))
    metrics["simulator.validate_log.ms_per_envelope"] = (statistics.median(
        layer_times(o)["simulator.validate_log"] / op_counts(op, o)["simulator.envelopes"]
        for op, o in rows), "ms")
    for name in PER_CALL:
        rows = source(lambda op, out: name in out.get("per_call", {}))
        seconds = sum(o["per_call"][name][0] for _, o in rows)
        calls = sum(o["per_call"][name][1] for _, o in rows)
        metrics[f"{name}.us_per_call"] = (seconds / calls * 1e6, "us")
    for name in COUNTS:
        key = name.replace("_kb", "_bytes")
        rows = source(lambda op, out: key in op_counts(op, out))
        total = sum(op_counts(op, o)[key] for op, o in rows)
        metrics[name] = (total / 1024 if key != name else total,
                         "KiB" if key != name else "count")
    metrics["trace.overhead_pct"] = (statistics.median(overhead), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def missing_inputs() -> list[str]:
    needed = [SRC / "routedmpst" / "cli.py", PROTOCOLS, GOLDEN, CORPUS_PY]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print(f"perfbench: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    ops = pool(args.workload, rng)
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # A fixed hash seed: set and dict order, and with it the cost of some
    # explorations, would otherwise change from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    calib = calibration() if args.trace else []
    try:
        for i, op in enumerate(ops + calib):
            op.file = work / f"op{i}.scr"
            op.file.write_text(op.protocol.text)
            if op.kind == "mutated":
                make_log(op, env)
        if args.trace:
            return traced_run(args, rng, ops, calib, env)
        return untraced_run(args, rng, ops, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _record(op: Op, out: dict) -> tuple[dict, str | None]:
    result = out["result"]
    ok = "error" not in result
    wrong = check(op, result) if ok else None
    return {"op": op.label, "ok": ok, "op_s": out["op_s"], "setup_s": out.get("setup_s"),
            "peak_rss_kib": out.get("peak_rss_kib"),
            "work": work_units(op, result) if ok else 0}, wrong


def write_out(name: str, data) -> None:
    """Write a run's raw records to perfbench/out/ when the run ends."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(json.dumps(data))


def _finish(correct: bool, attempted: int, failed: int, metrics: dict,
            human: list[str]) -> int:
    for line in human:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _timeout(start: float) -> float | None:
    """Time left for the next worker; None once no op may start."""
    elapsed = time.monotonic() - start
    return None if elapsed > DEADLINE_S else min(OP_LIMIT_S, DEADLINE_S + 15 - elapsed)


def untraced_run(args, rng: random.Random, ops: list[Op], env: dict) -> int:
    records, wrong = [], []
    start = time.monotonic()
    while len(records) < MIN_OPS or time.monotonic() - start < args.seconds:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            timeout = _timeout(start)
            if timeout is None:
                break
            out = run_worker(job_for(op, len(records), "cli"), env, timeout)
            record, bad = _record(op, out)
            records.append(record)
            if not record["ok"]:
                print(f"failed op {op.label}: {out['result']['error']}", file=sys.stderr)
            if bad:
                wrong.append(f"{op.label}: {bad}")
        if time.monotonic() - start > DEADLINE_S:
            break
    for line in wrong:
        print(f"wrong answer {line}", file=sys.stderr)
    failed = sum(not r["ok"] for r in records)
    if failed == len(records):
        print("perfbench: every op failed", file=sys.stderr)
        return 1
    metrics, human = end_to_end(args.workload, records)
    write_out(f"ops-{args.workload}-{args.seed}.json", records)
    return _finish(not wrong, len(records), failed, metrics, human)


def traced_run(args, rng: random.Random, ops: list[Op], calib: list[Op],
               env: dict) -> int:
    order = list(ops)
    rng.shuffle(order)
    traced, calibrated, overhead, spans, wrong, failed = [], [], [], [], [], 0
    start = time.monotonic()
    for i, op in enumerate(order):
        if _timeout(start) is None:
            break
        plain = run_worker(job_for(op, i, "layers"), env, _timeout(start) or 1)
        out = run_worker(job_for(op, i, "traced"), env, _timeout(start) or 1)
        if "error" in plain["result"] or "error" in out["result"]:
            failed += 1
            print(f"failed op {op.label}", file=sys.stderr)
            continue
        for res in (plain["result"], out["result"]):
            bad = check(op, res)
            if bad:
                wrong.append(f"{op.label}: {bad}")
        traced.append((op, out))
        spans += out["spans"]
        op_span = next(s for s in out["spans"] if s[0] == "op")
        overhead.append(((op_span[2] - op_span[1]) / plain["op_s"] - 1) * 100)
    for j, op in enumerate(calib):
        out = run_worker(job_for(op, len(order) + j, "traced"), env, _timeout(start) or 1)
        if "error" in out["result"]:
            print(f"failed calibration op {op.label}", file=sys.stderr)
            continue
        if check(op, out["result"]):
            wrong.append(f"calibration {op.label}")
        calibrated.append((op, out))
        spans += out["spans"]
    for line in wrong:
        print(f"wrong answer {line}", file=sys.stderr)
    if not traced:
        print("perfbench: every traced op failed", file=sys.stderr)
        return 1
    write_out(f"spans-{args.workload}-{args.seed}.json",
              [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in spans])
    metrics = per_layer(traced, calibrated, overhead)
    human = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return _finish(not wrong, len(traced) + failed, failed, metrics, human)


if __name__ == "__main__":
    sys.exit(main())
