"""`cli.main` reads a plain argv without argparse; over every argv below its
exit code, stdout and stderr are those of the full `build_parser()` parser:
help, usage errors, abbreviations, `--opt=value` and `--` included.  And a
command that runs never loads argparse."""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from routedmpst import cli

from corpus import PROTOCOL_DIR

TRAVEL = str(PROTOCOL_DIR / "TravelAgency.scr")
PINGPONG = str(PROTOCOL_DIR / "PingPong.scr")
VERIFY = ["verify", TRAVEL, "TravelAgency"]
SIMULATE = ["simulate", PINGPONG, "PingPong", "--router", "S"]

ARGVS = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["--bogus", "verify"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["verify", "--help", "extra"],
    # not a command (command names are not abbreviated)
    ["nosuch"], ["verif", TRAVEL], ["--", "parse", TRAVEL],
    # missing required arguments
    ["parse"], ["verify"], ["verify", TRAVEL], VERIFY,
    ["project", TRAVEL, "TravelAgency"], ["gen", TRAVEL, "TravelAgency", "S"],
    ["gen", TRAVEL, "TravelAgency", "S", "--flavor", "server"],
    # unrecognised extra positionals and options
    ["parse", TRAVEL, "extra"], ["parse", TRAVEL, "--bogus"], ["parse", TRAVEL, "--bogus=1"],
    VERIFY + ["--router", "S", "--depth", "2", "--bogus"],
    VERIFY + ["--router", "S", "--depth", "2", "extra"],
    VERIFY + ["--bogus", "--router", "S"],
    # abbreviations, ambiguous ones too
    VERIFY + ["--rou", "S", "--dep", "2"], VERIFY + ["--r", "S", "--d", "2", "--st", "9"],
    SIMULATE + ["--s", "1"], SIMULATE + ["--sc", "seeded-random", "--rou", "1"],
    ["traces", PINGPONG, "PingPong", "--depth", "2", "--conf"],
    VERIFY + ["--router", "S", "--h"],
    # --opt=value
    VERIFY + ["--router=S", "--depth=2"], VERIFY + ["--rou=S", "--depth=2", "--state-cap=3"],
    ["traces", PINGPONG, "PingPong", "--depth=2", "--config"],
    ["traces", PINGPONG, "PingPong", "--depth=2", "--config=1"],
    # bad values and choices
    VERIFY + ["--router", "S", "--depth", "x"], VERIFY + ["--router", "S", "--depth", "-1"],
    VERIFY + ["--router", "S", "--state-cap", "0"], VERIFY + ["--router", "1S"],
    VERIFY + ["--router"], SIMULATE + ["--seed", "1.5"],
    SIMULATE + ["--scheduler", "fifo"], SIMULATE + ["--rounds", "0"],
    ["gen", TRAVEL, "TravelAgency", "S", "--flavor", "bogus", "-o", "out"],
    ["project", TRAVEL, "TravelAgency", "1x"],
    # --
    ["verify", "--", TRAVEL, "TravelAgency", "--router", "S"],
    VERIFY + ["--router", "S", "--depth", "2", "--"],
    ["verify", "--router", "S", "--depth", "2", "--", TRAVEL, "TravelAgency"],
    ["parse", "--", TRAVEL], ["parse", TRAVEL, "--", "extra"],
    # commands that run
    ["parse", TRAVEL], VERIFY + ["--router", "S", "--depth", "3"],
    SIMULATE + ["--rounds", "1", "--scheduler", "seeded-random", "--seed", "3"],
    ["check", TRAVEL, "TravelAgency", "--router", "S"],
    ["traces", PINGPONG, "PingPong", "--depth", "2", "--config"],
    ["efsm", TRAVEL, "TravelAgency", "A"],
    # positionals mixed with options
    ["verify", "--router", "S", TRAVEL, "TravelAgency"],
    ["verify", TRAVEL, "--router", "S", "TravelAgency"],
    # repeated options: the last one wins
    VERIFY + ["--router", "A", "--depth", "9", "--router", "S", "--depth", "2"],
    SIMULATE + ["--seed", "1", "--scheduler", "seeded-random", "--seed", "2"],
    ["traces", PINGPONG, "PingPong", "--config", "--depth", "2", "--config"],
    # values that start with "-", and empty words
    SIMULATE + ["--seed", "-3"], VERIFY + ["--router", "--depth", "2"],
    ["parse", "-"], ["parse", ""], VERIFY + ["--router", ""],
    ["efsm", TRAVEL, "TravelAgency", "A", "--dot", "-"],
    ["efsm", TRAVEL, "TravelAgency", "A", "--dot", "-", "--ir", "-"],
    SIMULATE + ["--cancel", "-"], ["efsm", TRAVEL, "TravelAgency", "A", "--dot"],
    # more commands that run (the test's working directory is a scratch one)
    ["gen", TRAVEL, "TravelAgency", "S", "--flavor", "client", "-oout"],
    ["gen", TRAVEL, "TravelAgency", "S", "--flavor", "client", "-o", "out"],
    SIMULATE + ["--cancel", "C@3", "--max-steps", "50"],
]


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # `gen` writes under its -o directory
    args = cli._read_argv(argv)
    assert args is None or vars(args) == vars(cli.build_parser().parse_args(argv))
    fast = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert fast == _outcome(capsys, argv)


ODD = ["1S", "-3", "x", "-", "", "--", "-h", "--rou", "-oout", "--depth=2", "fifo"]


@st.composite
def argvs(draw):
    """A command's argv: its positionals and options, each option up to
    twice (a required one at least once), in any order; at times one word
    is replaced by an odd one, or one put before it."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    units = []
    for flags, options in cli._COMMANDS[name][2]:
        if "choices" in options:
            values = options["choices"]
        elif "type" in options:  # "0" is below the `_int_at_least(1)` types
            values = ["S", "A"] if options["type"] is cli.Role else ["2", "0"]
        else:
            values = [TRAVEL, "TravelAgency", "C@3"]
        value = st.sampled_from(values).map(lambda v: [v])
        if not flags[0].startswith("-"):
            units.append(draw(value))
        for _ in range(draw(st.integers(int(bool(options.get("required"))), 2))):
            units.append([draw(st.sampled_from(flags)),
                          *([] if "action" in options else draw(value))])
    argv = [name, *(w for unit in draw(st.permutations(units)) for w in unit)]
    if draw(st.booleans()):
        at = draw(st.integers(1, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(ODD))]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def test_a_read_argv_is_the_full_parsers_namespace(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


# `main` on the argv it is given; argparse's exit included, then stderr's
# last line names the modules of `SLOW` loaded.  Without `site` (`-S`), which
# on some installs loads modules of its own.
SLOW = {"argparse", "gettext", "locale"}
SCRIPT = f"""import sys
from routedmpst import cli
try:
    code = cli.main(sys.argv[1:])
finally:
    print(sorted({SLOW} & set(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def _run(argv):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    *err, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, "\n".join(err), loaded


@pytest.mark.parametrize("argv", [VERIFY + ["--router", "S", "--depth", "3"],
                                  SIMULATE + ["--rounds", "1"],
                                  ["efsm", TRAVEL, "TravelAgency", "A", "--dot", "-", "--ir", "-"]],
                         ids=" ".join)
def test_a_command_that_runs_loads_no_argparse(argv):
    code, out, err, loaded = _run(argv)
    assert (code, err, loaded) == (0, "", "[]") and out


def test_help_and_usage_errors_still_come_from_argparse():
    code, out, err, loaded = _run(["-h"])
    assert (code, err) == (0, "") and out.startswith("usage: routedmpst [-h]")
    assert "argparse" in loaded
    code, out, err, loaded = _run(VERIFY)
    assert (code, out) == (2, "") and "argparse" in loaded
    assert err.endswith("error: the following arguments are required: --router")
