import json
from pathlib import Path

import pytest

from routedmpst.cli import main
from routedmpst.core import Role
from routedmpst.efsm import build_efsm
from routedmpst.projection import project
from routedmpst.scribble import elaborate, parse_module

import efsm_oracle
from corpus import CORPUS_ROUTERS, PROTOCOL_DIR

TRAVEL = str(PROTOCOL_DIR / "TravelAgency.scr")
PINGPONG = str(PROTOCOL_DIR / "PingPong.scr")
GAME = str(PROTOCOL_DIR / "Game.scr")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_pretty_prints_module(capsys, tmp_path):
    code, out, err = run(capsys, "parse", TRAVEL)
    assert code == 0
    assert "global protocol TravelAgency(role A, role B, role S)" in out
    # the output reparses to the same module
    again = tmp_path / "again.scr"
    again.write_text(out)
    code2, out2, _ = run(capsys, "parse", str(again))
    assert code2 == 0 and out2 == out


def test_parse_empty_module(capsys, tmp_path):
    empty = tmp_path / "empty.scr"
    empty.write_text("// nothing here\n")
    code, out, err = run(capsys, "parse", str(empty))
    assert code == 0 and out == ""


def test_parse_syntax_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.scr"
    bad.write_text("global protocol P(role A, role B) { M() from A; }")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert "expected" in err


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "parse", "no/such/file.scr")
    assert code == 2


def test_undecodable_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.scr"
    bad.write_bytes(b"global protocol P(role A) { }\xff\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert err.startswith(f"cannot read {bad}: ") and len(err.splitlines()) == 1


def test_project_prints_local_type(capsys):
    code, out, _ = run(capsys, "project", TRAVEL, "TravelAgency", "A")
    assert code == 0
    assert out.startswith("rec t0 . B?Suggest(string)")


@pytest.mark.parametrize("role", ["A", "B", "S"])
def test_project_output_matches_golden_file(capsys, role):
    golden = f"project_TravelAgency_{role}.txt"
    code, out, _ = run(capsys, "project", TRAVEL, "TravelAgency", role)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(), f"{golden} drifted"


def test_an_inner_loop_projects_back_to_the_outer_loop_it_runs_on_into(capsys):
    # C sends m4 in every round of P, and takes no part in Q, the loop each
    # round runs on into: C's projection loops, rather than ending after
    # one round.
    path = str(PROTOCOL_DIR / "OuterLoop.scr")
    code, out, _ = run(capsys, "project", path, "P", "C")
    assert code == 0 and out == (GOLDEN / "project_OuterLoop_P_C.txt").read_text()
    code, out, _ = run(capsys, "check", path, "P")
    assert code == 0 and out == (GOLDEN / "check_OuterLoop_P.txt").read_text()


@pytest.mark.parametrize("command", [("check",), ("verify", "--router", "A")])
def test_a_merge_failure_is_reported_on_one_line(capsys, tmp_path, command):
    path = tmp_path / "merge.scr"
    path.write_text("global protocol M(role A, role B, role C) {\n"
                    "  choice at A { x() from A to B; x() from A to C; }\n"
                    "  or { y() from A to B; y() from B to C; }\n}\n")
    code, out, err = run(capsys, command[0], str(path), "M", *command[1:])
    assert code == 1
    assert (out + err).splitlines() == [
        "wf=fail", "projection undefined for C: cannot merge: A?x . end vs B?y . end"]


def test_check_wf_and_router(capsys):
    code, out, _ = run(capsys, "check", TRAVEL, "TravelAgency")
    assert code == 0 and "wf=ok" in out
    code, out, err = run(capsys, "check", TRAVEL, "TravelAgency", "--router", "S")
    assert code == 1 and out == "wf^S=fail\n"
    assert err == "centroid violated at <root>: B->A does not involve S\n"
    code, out, _ = run(capsys, "check", PINGPONG, "PingPong", "--router", "S")
    assert code == 0 and "wf^S=ok" in out


def test_encode_prints_routed_type(capsys):
    code, out, _ = run(capsys, "encode", TRAVEL, "TravelAgency", "--router", "S")
    assert code == 0
    assert "B->A via S" in out


def test_traces_listing(capsys):
    code, out, _ = run(capsys, "traces", PINGPONG, "PingPong", "--depth", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "<empty>" in lines[0]
    assert any("C->S!PING" in line for line in lines)
    code, out_cfg, _ = run(capsys, "traces", PINGPONG, "PingPong",
                           "--depth", "2", "--config")
    assert code == 0 and out_cfg == out


def test_verify_reports_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", TRAVEL, "TravelAgency",
                       "--router", "S", "--depth", "8")
    assert code == 0
    assert out.count("verdict=pass") == 4
    assert "check=trace_equivalence" in out
    assert "check=deadlock_freedom" in out
    assert "check=encoding_bisim" in out
    assert "states=" in out


def test_deep_verify_and_traces_run_without_recursion(capsys):
    # Depths past Python's recursion limit: every search is iterative.
    code, out, _ = run(capsys, "verify", PINGPONG, "PingPong",
                       "--router", "S", "--depth", "1500")
    assert code == 0
    assert out.count("verdict=pass") == 4
    code, out, _ = run(capsys, "traces", PINGPONG, "PingPong", "--depth", "1100")
    assert code == 0
    assert len(max(out.splitlines(), key=len).split(" . ")) == 1100


@pytest.mark.parametrize("command", [("verify", "--router", "S"), ("project", "A")])
def test_input_nested_too_deeply_is_a_domain_error(capsys, tmp_path, command):
    # 1,200 messages in sequence nest 1,200 levels deep, past what the
    # recursive frontend and projection reach under the default limit.
    pairs = [("A", "S"), ("S", "B"), ("B", "A")]
    body = "".join(f"  m{i}() from {pairs[i % 3][0]} to {pairs[i % 3][1]};\n"
                   for i in range(1200))
    path = tmp_path / "long.scr"
    path.write_text(f"global protocol Long(role A, role S, role B) {{\n{body}}}\n")
    code, out, err = run(capsys, command[0], str(path), "Long", *command[1:])
    assert code == 1 and out == ""
    assert "maximum recursion depth exceeded" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("golden, protocol, extra, exit_code", [
    *((f"verify_{name}.txt", name, (), 0) for name in sorted(CORPUS_ROUTERS)),
    # A cap below every checker's state count: all four are inconclusive.
    ("verify_TravelAgency_cap6.txt", "TravelAgency", ("--state-cap", "6"), 1),
])
def test_verify_output_matches_golden_file(capsys, golden, protocol, extra, exit_code):
    code, out, _ = run(capsys, "verify", str(PROTOCOL_DIR / f"{protocol}.scr"), protocol,
                       "--router", CORPUS_ROUTERS[protocol], "--depth", "6", *extra)
    assert code == exit_code
    assert out == (GOLDEN / golden).read_text(), f"{golden} drifted"


def test_verify_nested_loops_matches_golden_file(capsys):
    """OuterLoop's inner loop runs on into its outer one, so its states
    unfold one binder into the other: a `fail` witness from the encoded
    trace equivalence and an `inconclusive` deadlock search at the cap."""
    code, out, _ = run(capsys, "verify", str(PROTOCOL_DIR / "OuterLoop.scr"), "P",
                       "--router", "D", "--depth", "8", "--state-cap", "2000")
    assert code == 1
    assert out == (GOLDEN / "verify_OuterLoop_cap2000.txt").read_text()


def test_state_cap_counts_only_keys_a_bounded_search_expands(capsys):
    # At depth 4 the searches expand the 6 keys found within 3 steps; the
    # keys found on the 4th step are never expanded, so a cap of 6 suffices.
    # Deadlock freedom has no depth bound and stays inconclusive.
    code, out, _ = run(capsys, "verify", GAME, "Game", "--router", "Svr",
                       "--depth", "4", "--state-cap", "6")
    fields = [line.split("=", 1) for line in out.splitlines()]
    checks = [value for key, value in fields if key == "check"]
    verdicts = [value for key, value in fields if key == "verdict"]
    assert dict(zip(checks, verdicts)) == {"trace_equivalence": "pass", "trace_equivalence_encoded": "pass",
                        "deadlock_freedom": "inconclusive", "encoding_bisim": "pass"}
    assert code == 1


def test_verify_fails_on_unprojectable_protocol(capsys, tmp_path):
    bad = tmp_path / "bad.scr"
    bad.write_text("""
global protocol Bad(role A, role B, role C) {
  choice at A { L() from A to B; X() from C to A; }
  or { R() from A to B; Y() from A to C; }
}
""")
    code, out, err = run(capsys, "verify", str(bad), "Bad", "--router", "A")
    assert code == 1


def test_efsm_dot_and_ir_outputs(capsys, tmp_path):
    dot = tmp_path / "a.dot"
    ir = tmp_path / "a.json"
    code, out, _ = run(capsys, "efsm", TRAVEL, "TravelAgency", "A",
                       "--dot", str(dot), "--ir", str(ir))
    assert code == 0
    text = dot.read_text()
    assert text.count("[shape=circle]") == 8
    assert text.count("[shape=doublecircle]") == 1
    payload = json.loads(ir.read_text())
    assert len(payload["states"]) == 9 and len(payload["transitions"]) == 10
    assert text == (GOLDEN / "efsm_TravelAgency_A.dot").read_text()
    assert ir.read_text() == (GOLDEN / "efsm_TravelAgency_A.json").read_text()


def test_efsm_of_a_recursive_machine_matches_its_golden_files(capsys, tmp_path):
    # Battleships' router: the attack loop runs once per player, and its back
    # edges return to P1's attack.
    dot, ir = tmp_path / "svr.dot", tmp_path / "svr.json"
    code, out, _ = run(capsys, "efsm", str(PROTOCOL_DIR / "Battleships.scr"), "Battleships",
                       "Svr", "--dot", str(dot), "--ir", str(ir))
    assert code == 0 and out == ""
    assert dot.read_text() == (GOLDEN / "efsm_Battleships_Svr.dot").read_text()
    assert ir.read_text() == (GOLDEN / "efsm_Battleships_Svr.json").read_text()
    back = [t for t in json.loads(ir.read_text())["transitions"] if t["to"] < t["from"]]
    assert back


def test_efsm_dash_writes_to_stdout_dot_first(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "efsm", TRAVEL, "TravelAgency", "A", "--dot", "-", "--ir", "-")
    assert code == 0
    assert out == ((GOLDEN / "efsm_TravelAgency_A.dot").read_text()
                   + (GOLDEN / "efsm_TravelAgency_A.json").read_text())
    assert list(tmp_path.iterdir()) == []  # no file named "-"
    code, out, _ = run(capsys, "efsm", TRAVEL, "TravelAgency", "A",
                       "--dot", "a.dot", "--ir", "-")
    assert code == 0 and out == (GOLDEN / "efsm_TravelAgency_A.json").read_text()
    assert (tmp_path / "a.dot").read_text() == (GOLDEN / "efsm_TravelAgency_A.dot").read_text()


def test_efsm_ir_escapes_payload_sorts_as_json_does(capsys):
    # Meter's payload sorts hold a backslash, a tab and a letter outside
    # ASCII: strings that `efsm_ir` quotes with `json.dumps`, not as they
    # are.  The golden file was written when every string went through
    # `json.dumps`; the oracle still sends every one through it.
    path = PROTOCOL_DIR / "Meter.scr"
    golden = (GOLDEN / "efsm_Meter_S.json").read_text()
    code, out, _ = run(capsys, "efsm", str(path), "Meter", "S", "--ir", "-")
    assert code == 0 and out == golden
    assert "\\u00e4" in golden and "\\\\" in golden and "\\t" in golden
    g = elaborate(parse_module(path.read_text(encoding="utf-8"), str(path)), "Meter")
    assert efsm_oracle.efsm_ir(build_efsm(project(g, Role("S")), Role("S"))) == golden


def test_gen_writes_under_output_dir_only(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "gen", TRAVEL, "TravelAgency", "S",
                       "--flavor", "server", "-o", str(out_dir))
    assert code == 0
    produced = sorted(p.name for p in (out_dir / "TravelAgency" / "S").iterdir())
    assert produced == ["factory.ts", "handler.ts", "message.ts", "state.ts"]


def test_simulate_round_trips_and_conformance(capsys):
    code, out, _ = run(capsys, "simulate", PINGPONG, "PingPong",
                       "--router", "S", "--rounds", "3", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "# conformance=ok"
    assert sum(1 for line in lines if ",data," in line) == 6  # 3 pings + 2 pongs + bye


def test_simulate_with_cancellation(capsys):
    code, out, _ = run(capsys, "simulate", TRAVEL, "TravelAgency",
                       "--router", "S", "--cancel", "A@3")
    assert code == 0
    assert "# cancelled by A notified B,S" in out


@pytest.mark.parametrize("golden, protocol, extra", [
    ("simulate_TravelAgency_seeded_random_3.txt", "TravelAgency",
     ("--scheduler", "seeded-random", "--seed", "3")),
    ("simulate_Battleships_rounds_2.txt", "Battleships", ("--rounds", "2")),
    ("simulate_PingPong_cancel_C3.txt", "PingPong", ("--cancel", "C@3")),
    # The router cancels: no hop, it notifies both clients itself.
    ("simulate_Game_cancel_Svr2.txt", "Game", ("--cancel", "Svr@2")),
    # C cancels while BYE is still on its way to it: it reads BYE, and the
    # router takes the cancel after the last delivery.
    ("simulate_PingPong_cancel_C7_seeded_random_1.txt", "PingPong",
     ("--cancel", "C@7", "--scheduler", "seeded-random", "--seed", "1")),
])
def test_simulate_output_matches_golden_file(capsys, golden, protocol, extra):
    code, out, err = run(capsys, "simulate", str(PROTOCOL_DIR / f"{protocol}.scr"), protocol,
                         "--router", CORPUS_ROUTERS[protocol], *extra)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(), f"{golden} drifted"


def test_simulate_through_a_client_router_checks_the_log_on_the_protocol(capsys):
    # Direct delivery lets P2 receive Svr's message before P1 has received
    # its own, an order the encoding through P1 forbids; the session ran the
    # protocol, so its log is checked on the protocol.
    code, out, err = run(capsys, "simulate", str(PROTOCOL_DIR / "Battleships.scr"),
                         "Battleships", "--router", "P1", "--scheduler", "seeded-random",
                         "--seed", "0", "--rounds", "1")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "simulate_Battleships_P1_seeded_random_0.txt").read_text()


def test_a_long_game_session_passes_its_own_log_check(capsys):
    # 11,997 deliveries: the log check's state budget bounds one envelope's
    # layer of configurations, not the whole log.
    code, out, err = run(capsys, "simulate", str(PROTOCOL_DIR / "Game.scr"), "Game",
                         "--router", "Svr", "--rounds", "2000")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "# conformance=ok"
    assert sum(1 for line in lines if ",data," in line) == 11997


def test_simulate_cancel_by_a_role_outside_the_session_is_a_domain_error(capsys):
    code, out, err = run(capsys, "simulate", PINGPONG, "PingPong",
                         "--router", "S", "--cancel", "Zed@0")
    assert code == 1 and out == ""
    assert "Zed" in err and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", [
    ["traces", PINGPONG, "PingPong", "--depth", "-1"],
    ["verify", PINGPONG, "PingPong", "--router", "S", "--depth", "-1"],
    ["check", TRAVEL, "TravelAgency", "--router", "bad-name"],
    ["simulate", TRAVEL, "TravelAgency", "--router", "S", "--cancel", "bad!@3"],
    # A superscript digit: `str.isdigit` accepts it, `int` does not.
    ["simulate", PINGPONG, "PingPong", "--router", "S", "--cancel", "C@\u00b2"],
    ["simulate", PINGPONG, "PingPong", "--router", "S", "--max-steps", "0"],
    ["simulate", PINGPONG, "PingPong", "--router", "S", "--rounds", "0"],
    ["verify", PINGPONG, "PingPong", "--router", "S", "--state-cap", "-3"],
])
def test_bad_argument_values_are_usage_errors(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    # One message line; argparse may print its usage lines above it.
    message = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert len(message) == 1, err


@pytest.mark.parametrize("command", ["efsm", "gen"])
def test_unwritable_output_is_an_io_error(capsys, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "efsm":  # a DOT file under a missing directory
        argv = ["efsm", TRAVEL, "TravelAgency", "A", "--dot", str(tmp_path / "no" / "a.dot")]
    else:  # an output directory that is a file
        argv = ["gen", TRAVEL, "TravelAgency", "S", "--flavor", "server", "-o", str(blocker)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", PINGPONG, "PingPong"])  # missing --router
    assert exc.value.code == 2
