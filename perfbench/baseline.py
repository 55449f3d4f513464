"""Reference numbers and measured limits, recorded in perfbench/BASELINE.md.

Usage (from the repository root): python3 perfbench/baseline.py

Each figure comes from cold worker processes, as in the benchmark:

- Battleships `validate_log` time per data envelope, for sessions of 1-8
  rounds, and Battleships `check_trace_equivalence` time at depths 6-12;
- the largest Long-n that the frontend pipeline handles at the
  interpreter's default recursion limit (found by bisection), and the layer
  that fails just above it;
- the cost of deadlock exploration on Wide-2, which cannot finish: time and
  verdict at growing state caps, extrapolated to the default cap of 10^6.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import gen
import run


def layer_ms(out: dict, name: str) -> float:
    return sum((e - s) * 1000 for n, s, e, _, _ in out["spans"] if n == name)


def traced(op: run.Op, env: dict) -> dict:
    out = run.run_worker(run.job_for(op, 0, "traced") | {"probe": False}, env, 600)
    if "error" in out["result"]:
        raise RuntimeError(f"{op.label}: {out['result']['error']}")
    return out


def main() -> int:
    env = dict(os.environ)
    battleships = run._corpus()["Battleships"]
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        def op_on(protocol: gen.Protocol, kind: str, **params) -> run.Op:
            op = run.Op(kind, protocol, **params)
            op.file = Path(tmp) / f"{protocol.family}.scr"
            op.file.write_text(protocol.text)
            return op

        print("Battleships validate_log, cold process:")
        for rounds in (1, 2, 4, 8):
            out = traced(op_on(battleships, "simulate", rounds=rounds, seed=0,
                               scheduler="round-robin"), env)
            n = run._data_lines(out["result"]["stdout"])
            ms = layer_ms(out, "simulator.validate_log")
            print(f"  rounds={rounds}: {n} envelopes, {ms:.0f} ms, {ms / n:.1f} ms/envelope")

        print("Battleships check_trace_equivalence, cold process:")
        for depth in (6, 8, 10, 12):
            out = traced(op_on(battleships, "verify", depth=depth), env)
            print(f"  depth={depth}: {layer_ms(out, 'analysis.trace_equivalence') / 1000:.2f} s"
                  f" (whole verify {out['op_s']:.2f} s)")

        def long_ok(n: int) -> dict:
            return run.run_worker(run.job_for(op_on(gen.long(n), "frontend"), 0, "layers"),
                                  env, 600)["result"]

        lo, hi = 2, 2000
        assert "error" not in long_ok(lo) and "error" in long_ok(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if "error" not in long_ok(mid) else (lo, mid)
        print(f"Long-n frontend pipeline at the default recursion limit "
              f"({sys.getrecursionlimit()}): n <= {lo} passes; "
              f"Long-{hi} fails with {long_ok(hi)['error'][:80]}")

        print("Wide-2 deadlock exploration (verify --state-cap C):")
        for cap in (250, 500, 1000, 2000):
            op = op_on(gen.wide(2), "verify", depth=6, state_cap=cap)
            out = traced(op, env)
            ms = layer_ms(out, "analysis.deadlock_freedom")
            verdict = out["result"]["stdout"].split("check=deadlock_freedom")[1].split()[0]
            print(f"  cap={cap}: {verdict}, deadlock_freedom {ms / 1000:.2f} s,"
                  f" {cap / ms * 1000:.0f} states/s")
        print(f"  at that rate the default cap of 10^6 states takes >= "
              f"{10 ** 6 / (cap / ms * 1000):.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
