"""`validate_log` against the reference search of `reference_validator` on
corpus sessions and mutations of their logs, cancelled sessions included."""

import pytest

from routedmpst.analysis import StateBudgetExceeded
from routedmpst.core import MsgLabel, Role, participants
from routedmpst.encoding import encode_global
from routedmpst.simulator import (
    CANCEL, BoundedLoopPolicy, Envelope, LogRecord, SessionLog, SimConfig, Violation,
    parse_session_log, run_session, validate_log,
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


def _suffix_mutations(log, roles, router):
    """Edits of a cancelled log's suffix, each of which `run_session` never
    emits: data after the cancellation, a repeated last record, a cancel
    from a role outside the session, the first cancel sent to a third role,
    the notices out of order, and the suffix without its last record when
    that leaves a shorter suffix rather than none."""
    records = list(log.records)
    start = len(log.data_records)
    suffix, step = records[start:], records[-1].step + 1
    first = suffix[0].envelope
    out = {
        "data after": records + [LogRecord(step, Envelope(first.sender, first.receiver,
                                                           MsgLabel("m")))],
        "repeated": records + [records[-1]],
        "outsider": records + [LogRecord(step, Envelope(Role("Zed"), router, None, CANCEL, "x"))],
    }
    others = [r for r in roles if r not in (first.sender, first.receiver)]
    if others:
        out["elsewhere"] = records[:start] + [LogRecord(suffix[0].step, Envelope(
            first.sender, others[0], None, CANCEL, first.reason))] + suffix[1:]
    if len(suffix) > 2:
        out["reordered"] = records[:start] + [suffix[0], suffix[2], suffix[1]] + suffix[3:]
    if len(suffix) > 1:
        out["short"] = records[:-1]
    return out


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_cancelled_logs_validate_and_their_suffix_mutations_do_not(oracles, name):
    """Every cancelled session's log validates; every edit of its
    cancellation suffix is a Violation at the first edited record, as the
    reference finds it by its own code."""
    router = Role(CORPUS_ROUTERS[name])
    g, oracle = load(name), oracles(name)
    roles, cancelled = sorted(participants(g) | {router}), 0
    for injector in roles:
        for at in (0, 1, 3):
            for scheduler in SCHEDULERS:
                log = run_session(g, router, None, SimConfig(
                    seed=at, scheduler=scheduler, cancel_injection=(injector, at)))
                assert _assert_agrees(g, router, log, oracle) is True
                if log.cancellation is None:
                    continue
                cancelled += 1
                start = len(log.data_records)
                for kind, records in _suffix_mutations(log, roles, router).items():
                    verdict = _assert_agrees(g, router, SessionLog(tuple(records), None, ()),
                                             oracle)
                    assert isinstance(verdict, Violation), (kind, log.serialize())
                    assert verdict.index >= start, kind
                    assert records[verdict.index:] != list(log.records[verdict.index:]), kind
    assert cancelled


def test_the_reference_finds_the_violations_of_records_after_the_data():
    # Logs that the check accepted while it read the data prefix only: a
    # client's cancel sent to a client, then data, and roles the protocol
    # does not have; and a first record that is a cancel between outsiders.
    # And a cancellation appended to a complete log, after A has finished.
    g, router = load("TravelAgency"), Role("S")
    oracle = ReferenceValidator(g, router)
    complete = run_session(g, router).serialize()
    for text, index in (("1,B,A,data,Suggest\n9,A,B,cancel,nonsense\n"
                         "10,S,A,data,Bogus\n11,Q,Z,data,Nope\n", 1),
                        ("0,Q,Z,cancel,x\n1,Q,Z,data,Nope\n", 0),
                        (complete + "20,A,S,cancel,x\n21,S,B,cancel,x\n", 10)):
        log = parse_session_log(text)
        verdict = validate_log(g, router, log)
        assert isinstance(verdict, Violation) and verdict.index == index
        assert oracle.validate(log)[0] == verdict
