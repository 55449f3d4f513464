"""`cli.main` parses a command with that command's parser alone; over every
argv below its exit code, stdout and stderr are those of the full
`build_parser()` parser: help, usage errors, abbreviations, `--opt=value`
and `--` included."""

import pytest

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
]


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    fast = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert fast == _outcome(capsys, argv)


def test_a_command_builds_one_parser(capsys, monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["check", TRAVEL, "TravelAgency"]) == 0
    assert built == ["routedmpst check"]
    built.clear()
    cli.build_parser()
    assert len(built) == 1 + len(cli._COMMANDS)
    capsys.readouterr()
