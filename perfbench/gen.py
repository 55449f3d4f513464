"""Protocol generators for the benchmark.

Every generator returns a `Protocol`: Scribble text plus the answers the
toolkit must give on it.  The answers follow from how each family is built
and from the paper's theorems (a well-formed protocol is trace equivalent to
its projection, its encoding is deadlock free and bisimilar to it), never
from running the toolkit.  `tag` is appended to every message label, so a
seed can vary the text without changing its shape.

Families:

- Ring-n: roles R0..R(n-1) pass a token round a cycle; R0 chooses whether to
  go round again.  Router R0.
- Fan-n: server S sends a request to each of n clients, then collects one
  reply from each; S chooses whether to repeat.  Router S; S takes part in
  every interaction, so the encoding changes nothing.
- Long-n: n distinct messages in sequence over the pairs A->S, S->B, B->A.
  Router S.  Not recursive.
- Wide-k: S makes a k-way choice and tells A, A tells B; k-1 branches loop.
  Router S.  S can race ahead of A, so the reachable state space of the
  encoding is unbounded and deadlock exploration always hits its cap.
- Gap: m1 B->A; m2 A->C; m4 A->B with router C.  Its encoding is not trace
  equivalent to its projection (pinned known answer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
CHECKS = ("trace_equivalence", "trace_equivalence_encoded",
          "deadlock_freedom", "encoding_bisim")
ALL_PASS = dict.fromkeys(CHECKS, PASS)


@dataclass(frozen=True)
class Protocol:
    family: str
    name: str            # protocol to elaborate
    text: str            # Scribble source
    router: str
    wf: bool             # check_wf on the protocol
    wf_router: bool      # check_wf_routed on the protocol itself
    # per-check `verify` verdicts; every `fail` carries a counterexample
    verdicts: dict = field(default_factory=lambda: dict(ALL_PASS))
    # role -> number of EFSM states of its projection, where known
    efsm_states: dict = field(default_factory=dict)


def _decl(name: str, roles, body: list[str]) -> str:
    params = ", ".join(f"role {r}" for r in roles)
    lines = [f"global protocol {name}({params}) {{"]
    lines += [f"  {line}" for line in body]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _choice(at: str, blocks: list[list[str]]) -> list[str]:
    out = [f"choice at {at}"]
    for i, blk in enumerate(blocks):
        out.append(("{ " if i == 0 else "or { ") + " ".join(blk) + " }")
    return out


def _msg(tag: str):
    def msg(label: str, src: str, dst: str, sort: str = "") -> str:
        return f"{label}{tag}({sort}) from {src} to {dst};"
    return msg


def ring(n: int, tag: str = "") -> Protocol:
    msg = _msg(tag)
    roles = tuple(f"R{i}" for i in range(n))
    hops = [(roles[i], roles[(i + 1) % n]) for i in range(n)]
    go = [msg("Go", a, b, "int") for a, b in hops] + [f"do Ring({', '.join(roles)});"]
    stop = [msg("Stop", a, b) for a, b in hops]
    text = _decl("Ring", roles, _choice("R0", [go, stop]))
    # R0 takes part in only two hops; with n > 2 some hop bypasses it.
    return Protocol(f"Ring-{n}", "Ring", text, "R0", True, n <= 2)


def fan(n: int, tag: str = "") -> Protocol:
    msg = _msg(tag)
    clients = tuple(f"C{i}" for i in range(1, n + 1))
    roles = ("S",) + clients
    again = ([msg("Req", "S", c, "int") for c in clients]
             + [msg("Resp", c, "S", "int") for c in clients]
             + [f"do Fan({', '.join(roles)});"])
    stop = [msg("Stop", "S", c) for c in clients]
    text = _decl("Fan", roles, _choice("S", [again, stop]))
    return Protocol(f"Fan-{n}", "Fan", text, "S", True, True)


LONG_PAIRS = (("A", "S"), ("S", "B"), ("B", "A"))


def long(n: int, tag: str = "") -> Protocol:
    msg = _msg(tag)
    pairs = [LONG_PAIRS[i % 3] for i in range(n)]
    body = [msg(f"m{i + 1}", a, b) for i, (a, b) in enumerate(pairs)]
    text = _decl("Long", ("A", "S", "B"), body)
    # Each message a role takes part in is one state; the end is one more.
    states = {r: sum(r in p for p in pairs) + 1 for r in ("A", "S", "B")}
    return Protocol(f"Long-{n}", "Long", text, "S", True, n < 3,
                    efsm_states=states)


def wide(k: int, tag: str = "") -> Protocol:
    msg = _msg(tag)
    blocks = [[msg(f"l{i}", "S", "A"), msg(f"l{i}", "A", "B"), "do Wide(A, B, S);"]
              for i in range(1, k)]
    blocks.append([msg("done", "S", "A"), msg("done", "A", "B")])
    text = _decl("Wide", ("A", "B", "S"), _choice("S", blocks))
    verdicts = dict(ALL_PASS, deadlock_freedom=INCONCLUSIVE)
    # S: one send state plus end; A: one receive state, one send state per
    # branch, end; B: one receive state plus end.
    states = {"S": 2, "A": 1 + k + 1, "B": 2}
    return Protocol(f"Wide-{k}", "Wide", text, "S", True, False, verdicts, states)


def gap(tag: str = "") -> Protocol:
    msg = _msg(tag)
    body = [msg("m1", "B", "A"), msg("m2", "A", "C"), msg("m4", "A", "B")]
    text = _decl("Gap", ("A", "B", "C"), body)
    verdicts = dict(ALL_PASS, trace_equivalence_encoded=FAIL)
    return Protocol("Gap", "Gap", text, "C", True, False, verdicts,
                    {"A": 4, "B": 3, "C": 2})


def corpus(name: str, text: str, router: str) -> Protocol:
    """A protocol of the shipped corpus.  All four are well-formed; every
    interaction of Battleships, Game and PingPong involves the router, while
    TravelAgency's B->A messages bypass S."""
    return Protocol(name, name, text, router, True, name != "TravelAgency")
