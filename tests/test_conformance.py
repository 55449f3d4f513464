"""`validate_log` against the reference search of `reference_validator` on
corpus sessions and mutations of their logs."""

import pytest

from routedmpst.analysis import StateBudgetExceeded
from routedmpst.core import MsgLabel, Role, participants
from routedmpst.encoding import encode_global
from routedmpst.simulator import (
    BoundedLoopPolicy, Envelope, LogRecord, SessionLog, SimConfig, run_session,
    validate_log,
)

from corpus import CORPUS_ROUTERS, load
from reference_validator import ReferenceValidator

SCHEDULERS = ("round-robin", "seeded-random")


def _session(g, router, scheduler, seed, rounds):
    scripts = {r: BoundedLoopPolicy(rounds) for r in participants(g)}
    return run_session(g, router, scripts, SimConfig(seed=seed, scheduler=scheduler))


def _mutations(log):
    """Relabel the last envelope, swap the middle pair, drop the middle
    envelope, truncate to half."""
    records = list(log.records)
    n = len(records)
    last = records[-1].envelope
    names = sorted({r.envelope.msg.name for r in records} - {last.msg.name}) or ["Bogus"]
    relabelled = Envelope(last.sender, last.receiver, MsgLabel(names[0]))
    mid = n // 2
    swapped = records[:]
    swapped[mid - 1], swapped[mid] = swapped[mid], swapped[mid - 1]
    return {
        "relabel": records[:-1] + [LogRecord(records[-1].step, relabelled)],
        "swap": swapped,
        "drop": records[:mid] + records[mid + 1:],
        "truncate": records[:mid],
    }


def _assert_agrees(g, router, log, oracle):
    """Same verdict, and the same number of configurations expanded: the
    search fits a state cap of exactly that many and no fewer."""
    want, explored = oracle.validate(log)
    assert validate_log(g, router, log, state_cap=explored) == want
    if explored:
        with pytest.raises(StateBudgetExceeded):
            validate_log(g, router, log, state_cap=explored - 1)
    return want


@pytest.fixture(scope="module")
def oracles():
    """One reference validator per session type: a plain protocol is
    validated on its own LTS and its encoding on the encoded one."""
    made = {}

    def oracle(name, router=None, encoded=False):
        router = Role(router or CORPUS_ROUTERS[name])
        key = (name, router, encoded)
        if key not in made:
            g = load(name)
            made[key] = ReferenceValidator(encode_global(g, router) if encoded else g, router)
        return made[key]

    return oracle


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_validate_log_agrees_with_reference_search(oracles, name, encoded):
    _agrees_on_sessions_and_mutations(oracles, name, CORPUS_ROUTERS[name], encoded)


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("name,router", [
    ("Battleships", "P1"), ("Battleships", "P2"), ("Game", "P1"), ("Game", "P2")])
def test_validate_log_agrees_with_reference_search_through_a_client(
        oracles, name, router, encoded):
    # A client as router: in canonical mode the messages between the other
    # roles travel directly, in orders the encoding through it forbids.
    _agrees_on_sessions_and_mutations(oracles, name, router, encoded)


def _agrees_on_sessions_and_mutations(oracles, name, router, encoded):
    oracle = oracles(name, router, encoded)
    router = Role(router)
    g = load(name)
    if encoded:
        g = encode_global(g, router)
    logs = {}
    for scheduler in SCHEDULERS:
        for seed in range(5):
            for rounds in (1, 2, 4):
                log = _session(g, router, scheduler, seed, rounds)
                logs.setdefault(log.serialize(), log)
    verdicts = {}
    for log in logs.values():
        assert _assert_agrees(g, router, log, oracle) is True
        for kind, records in _mutations(log).items():
            verdict = _assert_agrees(g, router, SessionLog(tuple(records), None, ()), oracle)
            verdicts.setdefault(kind, set()).add(verdict is True)
    # Every mutation that changes a delivery is caught on some log.
    for kind in ("relabel", "drop"):
        assert False in verdicts[kind], kind


def test_long_battleships_log_validates(oracles):
    router = Role("Svr")
    g = load("Battleships")
    log = _session(g, router, "round-robin", 0, 32)
    assert len(log.data_records) == 191
    assert _assert_agrees(g, router, log, oracles("Battleships")) is True
