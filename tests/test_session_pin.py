"""Canonical-mode sessions are pinned byte for byte: one golden line per
case, `<case> <sha256>`, over the serialised log, the observations and the
cancellation record (notified roles sorted by name, since the repr order of
a frozenset depends on the hash seed).

Regenerate the golden, only when a change to canonical-mode output is
intended, with `PYTHONPATH=src python tests/test_session_pin.py`.
"""

import hashlib
from pathlib import Path

from routedmpst.core import Role, participants
from routedmpst.simulator import BoundedLoopPolicy, SimConfig, run_session

from corpus import CORPUS_ROUTERS, load

GOLDEN = Path(__file__).resolve().parent / "golden" / "simulate_canonical_pin.txt"


def _cases():
    """Every corpus protocol with every participant as router, both
    schedulers, seeds 0 and 1, two and four loop rounds, and no cancellation
    or one by each role at steps 0 and 5."""
    for name in sorted(CORPUS_ROUTERS):
        g = load(name)
        roles = sorted(participants(g))
        cancels = [None] + [(r, at) for r in roles for at in (0, 5)]
        for router in roles:
            for scheduler in ("round-robin", "seeded-random"):
                for seed in (0, 1):
                    for rounds in (2, 4):
                        for cancel in cancels:
                            at = "-" if cancel is None else f"{cancel[0]}@{cancel[1]}"
                            case = f"{name}/{router}/{scheduler}/s{seed}/r{rounds}/{at}"
                            cfg = SimConfig(seed=seed, scheduler=scheduler,
                                            cancel_injection=cancel)
                            yield case, g, router, rounds, cfg


def _digest(g, router: Role, rounds: int, cfg: SimConfig) -> str:
    scripts = {r: BoundedLoopPolicy(rounds) for r in participants(g)}
    log = run_session(g, router, scripts, cfg)
    c = log.cancellation
    cancellation = "-" if c is None else \
        f"{c.initiator} {','.join(sorted(r.name for r in c.notified))}"
    observed = repr([(r.name, events) for r, events in log.observations])
    text = "\n".join((log.serialize(), observed, cancellation))
    return hashlib.sha256(text.encode()).hexdigest()


def _lines():
    return [f"{case} {_digest(g, router, rounds, cfg)}\n"
            for case, g, router, rounds, cfg in _cases()]


def test_canonical_sessions_match_the_pin():
    want = dict(line.split() for line in GOLDEN.read_text().splitlines())
    got = [line.split() for line in _lines()]
    assert [case for case, _ in got] == list(want)
    for case, digest in got:
        assert digest == want[case], f"first differing case: {case}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(_lines()))
