"""Command-line surface for the toolkit.

Exit codes: 0 on success/pass, 1 on a domain failure (syntax, merge, centroid
or verdict failure, or input nested too deeply), 2 on usage or I/O errors.
Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from .analysis import (
    DEFAULT_STATE_CAP, PreconditionError, StateBudgetExceeded,
    check_deadlock_freedom, check_encoding_bisim, check_trace_equivalence,
    config_traces, global_traces,
)
from .codegen import FLAVORS, emit_skeleton
from .core import InvalidType, Role, participants, pretty_global, pretty_local
from .efsm import build_efsm, efsm_ir, render_dot
from .encoding import encode_global
from .projection import MergeFailure, project
from .scribble import ScribbleError, elaborate, parse_module, pretty_module
from .semantics import Tables
from .simulator import (
    BoundedLoopPolicy, SimConfig, SimulatorError, run_session, validate_log,
)
from .wellformed import check_wf, check_wf_routed

USAGE_ERROR = 2
DOMAIN_ERROR = 1

# What `main` reports as a domain failure (exit 1); `_UsageError` and
# `OSError` exit 2.  Any other exception is a bug and keeps its traceback.
# Parsing, projection and the pretty printers recurse once per nesting
# level, so input nested too deeply for the interpreter's stack raises
# RecursionError, a limit of the input like a state budget.
_DOMAIN_FAILURES = (ScribbleError, InvalidType, MergeFailure, SimulatorError,
                    PreconditionError, StateBudgetExceeded, RecursionError)


class _UsageError(Exception):
    """A command-line value argparse cannot check, or an unreadable input."""


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            import argparse  # a command that runs never loads it
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    convert.__name__ = "int"  # keeps argparse's "invalid int value" message
    return convert


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}")


def _load(path: str, protocol: str | None):
    decls = parse_module(_read(path), path)
    return decls, None if protocol is None else elaborate(decls, protocol)


def cmd_parse(args) -> int:
    decls, _ = _load(args.file, None)
    sys.stdout.write(pretty_module(decls) if decls else "")
    return 0


def cmd_project(args) -> int:
    _, g = _load(args.file, args.protocol)
    print(pretty_local(project(g, args.role)))
    return 0


def cmd_check(args) -> int:
    _, g = _load(args.file, args.protocol)
    if args.router:
        report = check_wf_routed(g, args.router)
        tag = f"wf^{args.router}"
    else:
        report = check_wf(g)
        tag = "wf"
    print(f"{tag}={'ok' if report.ok else 'fail'}")
    if not report.ok:
        print(report.describe(), file=sys.stderr)
        return DOMAIN_ERROR
    return 0


def cmd_encode(args) -> int:
    _, g = _load(args.file, args.protocol)
    print(pretty_global(encode_global(g, args.router)))
    return 0


def cmd_traces(args) -> int:
    _, g = _load(args.file, args.protocol)
    ts = config_traces(g, args.depth) if args.config else global_traces(g, args.depth)
    for trace in sorted(ts.traces, key=lambda tr: (len(tr), tuple(a.sort_key() for a in tr))):
        print(" . ".join(str(a) for a in trace) if trace else "<empty>")
    return 0


def cmd_verify(args) -> int:
    _, g = _load(args.file, args.protocol)
    tables = Tables()  # all four checks project and explore `g` and `encoded`
    wf = check_wf(g, tables=tables)
    if not wf.ok:
        print("wf=fail", file=sys.stderr)
        print(wf.describe(), file=sys.stderr)
        return DOMAIN_ERROR
    encoded = tables.encode(g, args.router)
    reports = [
        check_trace_equivalence(g, args.depth, args.state_cap, tables=tables),
        check_trace_equivalence(encoded, args.depth, args.state_cap, tables=tables),
        check_deadlock_freedom(encoded, args.router, args.state_cap, tables=tables),
        check_encoding_bisim(g, args.router, args.depth, args.state_cap, tables=tables),
    ]
    names = ["trace_equivalence", "trace_equivalence_encoded",
             "deadlock_freedom", "encoding_bisim"]
    ok = True
    for name, report in zip(names, reports):
        print(f"check={name}")
        for line in report.lines()[1:]:
            print(line)
        ok = ok and report.passed
    return 0 if ok else DOMAIN_ERROR


def cmd_efsm(args) -> int:
    _, g = _load(args.file, args.protocol)
    machine = build_efsm(project(g, args.role), args.role)
    # Without either flag the DOT goes to stdout; "-" also names stdout.
    dot = args.dot if args.dot or args.ir else "-"
    for path, render in ((dot, render_dot), (args.ir, efsm_ir)):
        if path == "-":
            sys.stdout.write(render(machine))
        elif path:
            Path(path).write_text(render(machine))
    return 0


def cmd_gen(args) -> int:
    _, g = _load(args.file, args.protocol)
    files = emit_skeleton(build_efsm(project(g, args.role), args.role), args.flavor)
    out_dir = Path(args.output) / args.protocol / args.role.name
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        (out_dir / name).write_text(text)
        print(out_dir / name)
    return 0


def cmd_simulate(args) -> int:
    _, g = _load(args.file, args.protocol)
    cancel = None
    if args.cancel:
        role_name, _, at = args.cancel.partition("@")
        if not at.isdecimal():  # exactly the strings `int` accepts here
            raise _UsageError("--cancel expects ROLE@STEP")
        try:
            cancel = (Role(role_name), int(at))
        except InvalidType as exc:
            raise _UsageError(f"--cancel: {exc}")
    cfg = SimConfig(seed=args.seed, max_steps=args.max_steps,
                    scheduler=args.scheduler, cancel_injection=cancel)
    scripts = {r: BoundedLoopPolicy(args.rounds) for r in participants(g)}
    # The frontend builds no routed interaction, so `g` is its own canonical
    # form: the session's precondition and the log check share its encoding.
    tables = Tables()
    log = run_session(g, args.router, scripts, cfg, tables=tables)
    sys.stdout.write(log.serialize())
    if log.cancellation:
        notified = ",".join(sorted(r.name for r in log.cancellation.notified))
        print(f"# cancelled by {log.cancellation.initiator} notified {notified}")
    verdict = validate_log(g, args.router, log, tables=tables)
    print(f"# conformance={'ok' if verdict is True else verdict}")
    return 0 if verdict is True else DOMAIN_ERROR


def _arg(*flags, **options):
    return flags, options


_FILE, _PROTOCOL, _ROLE = _arg("file"), _arg("protocol"), _arg("role", type=Role)
_ROUTER = _arg("--router", type=Role, required=True)
_DEPTH = _arg("--depth", type=_int_at_least(0), default=8)

# Every command: its help line, its handler and its arguments, as
# `(flags, add_argument options)`, in the order the help lists them.
_COMMANDS = {
    "parse": ("parse a module and pretty-print it", cmd_parse, [_FILE]),
    "project": ("project a protocol onto a role", cmd_project, [_FILE, _PROTOCOL, _ROLE]),
    "check": ("well-formedness (optionally router-aware)", cmd_check,
              [_FILE, _PROTOCOL, _arg("--router", type=Role)]),
    "encode": ("encode through a router role", cmd_encode, [_FILE, _PROTOCOL, _ROUTER]),
    "traces": ("list bounded traces", cmd_traces, [
        _FILE, _PROTOCOL, _DEPTH,
        _arg("--config", action="store_true",
             help="use the configuration semantics instead of the global one")]),
    "verify": ("run the four theorem checks", cmd_verify, [
        _FILE, _PROTOCOL, _ROUTER, _DEPTH,
        _arg("--state-cap", type=_int_at_least(1), default=DEFAULT_STATE_CAP)]),
    "efsm": ("endpoint state machine (DOT and/or JSON IR)", cmd_efsm,
             [_FILE, _PROTOCOL, _ROLE, _arg("--dot", help="DOT output file, - for stdout"),
              _arg("--ir", help="JSON IR output file, - for stdout (after the DOT)")]),
    "gen": ("emit endpoint skeleton files", cmd_gen, [
        _FILE, _PROTOCOL, _ROLE, _arg("--flavor", choices=FLAVORS, required=True),
        _arg("-o", "--output", required=True)]),
    "simulate": ("run one deterministic session", cmd_simulate, [
        _FILE, _PROTOCOL, _ROUTER,
        _arg("--seed", type=int, default=0),
        _arg("--rounds", type=_int_at_least(1), default=2),
        _arg("--scheduler", choices=["round-robin", "seeded-random"],
             default="round-robin"),
        _arg("--max-steps", type=_int_at_least(1), default=100_000),
        _arg("--cancel", help="ROLE@STEP cancellation injection")]),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # its first use costs milliseconds: help and usage errors only
    parser = argparse.ArgumentParser(
        prog="routedmpst",
        description="Routed multiparty session type toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, fn, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(fn=fn)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser()` makes of a plain argv, read from its
    command's `_COMMANDS` entry.  None for a first word that is no command, a
    word that starts with "-" and is no flag of the command (help, `--opt=x`,
    `--`, abbreviations, negative numbers), a flag without a value or with one
    that starts with "-", a value its type or choices reject, a missing or
    surplus argument.  A lone "-" is a value, as argparse reads it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, arguments = _COMMANDS[argv[0]]
    flags = {f: (names, options) for names, options in arguments
             for f in names if f.startswith("-")}
    positionals = [(names, options) for names, options in arguments
                   if not names[0].startswith("-")]
    given, words = {}, iter(argv[1:])
    for word in words:
        if word in flags:
            names, options = flags[word]
            if options.get("action") == "store_true":
                given[names] = True
                continue
            word = next(words, None)
        elif positionals:
            names, options = positionals.pop(0)
        else:
            return None
        if word is None or (word.startswith("-") and word != "-"):
            return None
        try:
            value = options.get("type", str)(word)
        except Exception:  # the full parser words it, or raises it, as argparse does
            return None
        if value not in options.get("choices", (value,)):
            return None
        given[names] = value
    values = {"command": argv[0], "fn": fn}
    for names, options in arguments:
        if names not in given and (options.get("required") or not names[0].startswith("-")):
            return None
        # argparse's dest: the first long flag, else the first name
        dest = next((f for f in names if f.startswith("--")), names[0])
        values[dest.lstrip("-").replace("-", "_")] = given.get(names, options.get(
            "default", False if options.get("action") == "store_true" else None))
    return SimpleNamespace(**values)


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """`build_parser().parse_args(argv)`; argparse, whose first use costs
    milliseconds, only where `_read_argv` does not read `argv`."""
    args = _read_argv(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except _DOMAIN_FAILURES as exc:
        print(exc, file=sys.stderr)
        return DOMAIN_ERROR
    except (_UsageError, OSError) as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
