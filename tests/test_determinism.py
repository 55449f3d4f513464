"""Determinism: each step relation offers a label with one successor at
most, and output depends only on input and seed, not on the interpreter's
hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from routedmpst.analysis import reachable_states
from routedmpst.codegen import FLAVORS
from routedmpst.core import participants
from routedmpst.projection import MergeFailure, project
from routedmpst.semantics import global_steps, local_steps

from corpus import CORPUS_ROUTERS, PROTOCOL_DIR
from strategies import ROLE_POOL, global_types

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Runs each command line given as JSON on argv[1] through the CLI in one
# process, in the current directory, and prints as JSON {command index:
# stdout} and {path: text} of every file the commands wrote.
_RUNNER = """
import contextlib, io, json, pathlib, sys
from routedmpst.cli import main
out = {}
for i, argv in enumerate(json.loads(sys.argv[1])):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    out[i] = buf.getvalue()
files = {str(p): p.read_text() for p in sorted(pathlib.Path().rglob("*")) if p.is_file()}
print(json.dumps({"stdout": out, "files": files}))
"""

# The protocol whose EFSMs and skeletons are written, to relative paths.
EFSM_PROTOCOL = "TravelAgency"


def _commands():
    commands = []
    for name, router in sorted(CORPUS_ROUTERS.items()):
        source = [str(PROTOCOL_DIR / f"{name}.scr"), name, "--router", router]
        commands.append(["verify", *source, "--depth", "6"])
        for scheduler in ("round-robin", "seeded-random"):
            commands.append(["simulate", *source, "--rounds", "2", "--scheduler", scheduler])
    source = [str(PROTOCOL_DIR / f"{EFSM_PROTOCOL}.scr"), EFSM_PROTOCOL]
    for role in ("A", "B", CORPUS_ROUTERS[EFSM_PROTOCOL]):
        commands.append(["efsm", *source, role, "--ir", f"{role}.json", "--dot", f"{role}.dot"])
        for flavor in FLAVORS:
            commands.append(["gen", *source, role, "--flavor", flavor, "-o", flavor])
    return commands


def _run_under_hash_seed(seed, commands, cwd):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cwd.mkdir()
    done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(commands)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout)


def test_output_does_not_depend_on_hash_seed(tmp_path):
    commands = _commands()
    first = _run_under_hash_seed(1, commands, tmp_path / "1")
    assert _run_under_hash_seed(2, commands, tmp_path / "2") == first
    stdout = first["stdout"]
    for i, argv in enumerate(commands):
        if argv[0] == "verify":
            assert stdout[str(i)] == (GOLDEN / f"verify_{argv[2]}.txt").read_text(), argv[2]
        elif argv[0] == "simulate":
            assert stdout[str(i)].endswith("# conformance=ok\n"), argv
    roles = ("A", "B", CORPUS_ROUTERS[EFSM_PROTOCOL])
    units = ("message", "handler", "state", "factory")
    assert set(first["files"]) == (
        {f"{role}.{ext}" for role in roles for ext in ("json", "dot")}
        | {f"{flavor}/{EFSM_PROTOCOL}/{role}/{unit}.ts"
           for flavor in FLAVORS for role in roles for unit in units})
    assert all(first["files"].values())


def _deterministic(steps):
    successors = {}
    for label, succ in steps:
        assert successors.setdefault(label, succ) == succ, label


@PROPERTY
@given(global_types(depth=3, roles=ROLE_POOL))
def test_step_relations_are_label_deterministic(g):
    """No global state, and no local state of any projection, offers one
    label with two different successors."""
    for state in reachable_states(g, 4):
        _deterministic(global_steps(state))
    for role in sorted(participants(g)):
        try:
            frontier = [project(g, role)]
        except MergeFailure:
            continue
        for _ in range(4):
            successors = []
            for t in frontier:
                steps = local_steps(t, role)
                _deterministic(steps)
                successors += [succ for _, succ in steps]
            frontier = successors
