"""Run one benchmark op in a fresh interpreter and print its result.

Usage: python3 perfbench/worker.py < job.json

The job (JSON on stdin) names the op kind, its input files and arguments.
Everything before the first call into the package -- interpreter start,
imports and reading the input -- is set-up; the worker reports the monotonic
clock at that point so the parent can compute the spawn-to-ready time.  The
op itself is timed from the first call into the package to its result.

In mode "cli" a `verify` or `simulate` op goes through routedmpst.cli.main.
In modes "layers" and "traced" the worker calls the layer functions itself,
in the order the CLI would; "traced" records one span around each public
call and, after the op, runs probes that count states and time single step
calls.  Spans and counts are kept in memory and returned with the result.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


class NoTracer:
    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def _nodes(t) -> int:
    """Number of IR nodes of a global or local type."""
    count, stack = 0, [t]
    while stack:
        u = stack.pop()
        count += 1
        if hasattr(u, "body"):
            stack.append(u.body)
        stack.extend(cont for _, cont in getattr(u, "branches", ()))
    return count


def _cli(argv: list[str]) -> dict:
    from routedmpst import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _load(tr, text: str, job: dict):
    from routedmpst.scribble import elaborate, parse_module
    with tr.span("scribble.parse_module"):
        decls = parse_module(text, job["file"])
    with tr.span("scribble.elaborate"):
        return elaborate(decls, job["protocol"])


def _verify(tr, text: str, job: dict) -> tuple:
    """cmd_verify, layer by layer."""
    from routedmpst.analysis import (
        check_deadlock_freedom, check_encoding_bisim, check_trace_equivalence,
    )
    from routedmpst.core import Role
    from routedmpst.encoding import encode_global
    from routedmpst.wellformed import check_wf
    g = _load(tr, text, job)
    router, depth, cap = Role(job["router"]), job["depth"], job["state_cap"]
    with tr.span("wellformed.check_wf"):
        if not check_wf(g).ok:
            return g, {"code": 1, "stdout": ""}
    with tr.span("encoding.encode_global"):
        encoded = encode_global(g, router)
    reports = {}
    for name, call in (
            ("trace_equivalence", lambda: check_trace_equivalence(g, depth, cap)),
            ("trace_equivalence_encoded",
             lambda: check_trace_equivalence(encoded, depth, cap)),
            ("deadlock_freedom", lambda: check_deadlock_freedom(encoded, router, cap)),
            ("encoding_bisim", lambda: check_encoding_bisim(g, router, depth, cap))):
        with tr.span(f"analysis.{name}"):
            reports[name] = call()
    lines = []
    for name, report in reports.items():
        lines += [f"check={name}"] + report.lines()[1:]
    return g, {"code": 0 if all(r.passed for r in reports.values()) else 1,
               "stdout": "\n".join(lines) + "\n",
               "analysis_states": sum(r.states_visited for r in reports.values())}


def _simulate(tr, text: str, job: dict) -> tuple:
    """cmd_simulate, layer by layer."""
    from routedmpst.core import Role, participants
    from routedmpst.simulator import (
        BoundedLoopPolicy, SimConfig, run_session, validate_log,
    )
    g = _load(tr, text, job)
    router = Role(job["router"])
    cfg = SimConfig(seed=job["seed"], scheduler=job["scheduler"])
    scripts = {r: BoundedLoopPolicy(job["rounds"]) for r in participants(g)}
    with tr.span("simulator.run_session"):
        log = run_session(g, router, scripts, cfg)
    out = log.serialize()
    with tr.span("simulator.validate_log"):
        verdict = validate_log(g, router, log)
    out += f"# conformance={'ok' if verdict is True else verdict}\n"
    return g, {"code": 0 if verdict is True else 1, "stdout": out}


def _mutated(tr, text: str, job: dict) -> tuple:
    """Validate a session log given as text."""
    from routedmpst.core import Role
    from routedmpst.simulator import parse_session_log, validate_log
    g = _load(tr, text, job)
    log = parse_session_log(job["log_text"])
    with tr.span("simulator.validate_log"):
        verdict = validate_log(g, Role(job["router"]), log)
    return g, {"violation": None if verdict is True else verdict.index,
               "envelopes": len(log.data_records)}


def _frontend(tr, text: str, job: dict) -> tuple:
    """parse -> elaborate -> project every role -> wf -> encode -> wf^router
    -> EFSM, DOT and IR -> skeleton for every role."""
    from routedmpst.codegen import emit_skeleton
    from routedmpst.core import Role, participants
    from routedmpst.efsm import build_efsm, efsm_ir, render_dot
    from routedmpst.encoding import encode_global
    from routedmpst.projection import project
    from routedmpst.wellformed import check_wf, check_wf_routed
    g = _load(tr, text, job)
    router = Role(job["router"])
    roles = sorted(participants(g))
    with tr.span("projection.project"):
        local = {r: project(g, r) for r in roles}
    with tr.span("wellformed.check_wf"):
        wf = check_wf(g).ok
    with tr.span("encoding.encode_global"):
        encoded = encode_global(g, router)
    with tr.span("wellformed.check_wf_routed"):
        wf_router = check_wf_routed(g, router).ok
        wf_router_encoded = check_wf_routed(encoded, router).ok
    with tr.span("efsm.build_efsm"):
        machines = {r: build_efsm(local[r], r) for r in roles}
    with tr.span("efsm.render"):
        rendered = {r: (render_dot(m), efsm_ir(m)) for r, m in machines.items()}
    with tr.span("codegen.emit_skeleton"):
        files = {r: emit_skeleton(m, "server" if r == router else "client")
                 for r, m in machines.items()}
    return g, {
        "wf": wf, "wf_router": wf_router, "wf_router_encoded": wf_router_encoded,
        "efsm_states": {r.name: len(m.states) for r, m in machines.items()},
        "skeletons": {r.name: fs for r, fs in files.items()
                      if r.name in job.get("skeleton_roles", ())},
        "output_bytes": sum(len(t) for fs in files.values() for t in fs.values())
        + sum(len(d) + len(i) for d, i in rendered.values()),
        "local_nodes": sum(_nodes(t) for t in local.values()),
        "efsm_total": sum(len(m.states) for m in machines.values()),
    }


OPS = {"verify": _verify, "simulate": _simulate, "mutated": _mutated,
       "frontend": _frontend}


def _probe(g, job: dict) -> dict:
    """Extra traced calls: state counts and per-call costs of the step
    functions on the states this input reaches (the working set a
    process-wide cache would hold)."""
    from routedmpst.analysis import global_traces, reachable_states
    from routedmpst.core import Role, canonicalize
    from routedmpst.encoding import encode_global
    from routedmpst.semantics import config_steps, global_steps, project_configuration
    counts = {}
    if job["kind"] == "verify":
        counts["analysis.trace_count"] = len(global_traces(g, job["depth"]).traces)

    states = reachable_states(g, job["probe_depth"])
    steps_s = canon_s = 0.0
    for state in states:
        t0 = time.perf_counter()
        global_steps(state)
        t1 = time.perf_counter()
        canonicalize(state)
        steps_s += t1 - t0
        canon_s += time.perf_counter() - t1
    counts["semantics.global_states"] = len(states)
    per_call = {"semantics.global_steps": (steps_s, len(states)),
                "core.canonicalize": (canon_s, len(states))}

    # Breadth-first over configurations of the encoding, up to a cap.
    start = project_configuration(encode_global(g, Role(job["router"]))).canonical()
    seen, frontier, calls, config_s = {start}, [start], 0, 0.0
    while frontier and calls < job["config_cap"]:
        conf = frontier.pop(0)
        t0 = time.perf_counter()
        succs = config_steps(conf)
        config_s += time.perf_counter() - t0
        calls += 1
        for _, succ in succs:
            key = succ.canonical()
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    counts["semantics.config_states"] = calls
    per_call["semantics.config_steps"] = (config_s, calls)
    return {"counts": counts, "per_call": per_call}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    import routedmpst.cli  # noqa: F401  (the whole package, as the CLI loads it)
    text = Path(job["file"]).read_text()
    if "log" in job:
        job["log_text"] = Path(job["log"]).read_text()
    traced = job["mode"] == "traced"
    tr = Tracer(job["op_id"]) if traced else NoTracer()
    ready = time.monotonic()

    g = None
    start = time.perf_counter()
    try:
        if job["mode"] == "cli":
            result = _cli(job["argv"])
        else:
            with tr.span("op"):
                g, result = OPS[job["kind"]](tr, text, job)
    except Exception as exc:  # a raise is a failed op, not a crash
        entry = next((f.name for f in traceback.extract_tb(exc.__traceback__)
                      if "routedmpst" in f.filename), "?")
        result = {"error": f"{type(exc).__name__} in {entry}: {exc}"}
    op_s = time.perf_counter() - start

    out = {"ready": ready, "op_s": op_s, "result": result,
           "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if traced and g is not None:
        from routedmpst.core import validate
        out["counts"] = {"scribble.source_bytes": len(text.encode()),
                         "core.global_nodes": _nodes(g)}
        with tr.span("probe"):
            with tr.span("core.validate"):
                validate(g)
            if job["probe"]:
                probe = _probe(g, job)
                out["counts"].update(probe["counts"])
                out["per_call"] = probe["per_call"]
        out["spans"] = tr.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
