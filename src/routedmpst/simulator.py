"""Deterministic in-process session execution.

Each role runs the state machine of its projection of the session type,
decided once by `_session_type`: a canonical protocol, whose client-to-client
messages travel directly, or its routed encoding, whose router forwards them
by its own machine's edges.  A session is one walk of these machines, with a
FIFO buffer per ordered role pair, through the configuration rule
(`semantics._enabled`) and the cancellation rule (`_cancellation`); log
validation searches the same type's LTS under the same two rules, so every
log is a path of the LTS it checks.  A cancellation travels to the router,
which notifies every other role; no data is delivered after it.

Observable behaviour (delivery order, observations) is a pure function of
the protocol, the scripts and the configuration seed.

The module has no search loop of its own: log validation (one closure of
a layer per envelope) and the loop policy's test (which states a branch
target reaches) run `analysis._explore`.
"""

from __future__ import annotations

import random
from collections import Counter

from .core import (
    GComm, GEnd, GRec, GRouted, GVar, GlobalType, MsgLabel, RECV, Role, SEND,
    participants, record,
)
from .analysis import INCONCLUSIVE, StateBudgetExceeded, _explore
from .efsm import Efsm, build_efsm
from .semantics import (
    ActionLabel, CompiledConfigurations, Tables, _enabled, project_configuration,
)
from .wellformed import check_wf_routed

DATA = "data"
CANCEL = "cancel"


class SimulatorError(Exception):
    pass


class ConformanceViolation(SimulatorError):
    """The walk got stuck: no role can move while a machine is short of its
    end or a buffer holds a message."""


class MaxStepsExceeded(SimulatorError):
    pass


class NotEncodable(SimulatorError):
    """The input type routes through a role other than the designated router."""


@record
class Envelope:
    sender: Role
    receiver: Role
    msg: MsgLabel | None
    kind: str = DATA
    reason: str = ""

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ValueError(f"{self.sender} sends to itself")
        if self.kind not in (DATA, CANCEL):
            raise ValueError(f"kind {self.kind!r} is neither {DATA} nor {CANCEL}")


@record
class SimConfig:
    seed: int = 0
    scheduler: str = "round-robin"  # or "seeded-random"
    max_steps: int = 100_000
    cancel_injection: tuple[Role, int] | None = None

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.scheduler not in ("round-robin", "seeded-random"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")


@record
class LogRecord:
    step: int
    envelope: Envelope

    def line(self) -> str:
        env = self.envelope
        label = env.msg.name if env.msg is not None else env.reason.replace(",", ";")
        return f"{self.step},{env.sender},{env.receiver},{env.kind},{label}"


@record
class CancellationRecord:
    initiator: Role
    notified: frozenset[Role]


@record
class SessionLog:
    records: tuple[LogRecord, ...]
    cancellation: CancellationRecord | None
    # per-role sequence of (direction, peer name, label name) machine events
    observations: tuple[tuple[Role, tuple[tuple[str, str, str], ...]], ...]

    @property
    def data_records(self) -> tuple[LogRecord, ...]:
        return tuple(r for r in self.records if r.envelope.kind == DATA)

    def serialize(self) -> str:
        return "\n".join(r.line() for r in self.records) + ("\n" if self.records else "")


# ---------------------------------------------------------------------------
# Choice policies
# ---------------------------------------------------------------------------


class ChoicePolicy:
    """Resolves which label an endpoint selects at a send state.

    Policies may carry per-session state (visit counters, script cursors);
    use a fresh instance per run_session call.
    """

    def choose(self, state_id: int, labels: tuple[MsgLabel, ...],
               rng: random.Random) -> MsgLabel:
        raise NotImplementedError


class BoundedLoopPolicy(ChoicePolicy):
    """Takes looping branches a fixed number of times, then escapes.

    A branch loops when its target can reach the current state again; the
    first non-looping branch is the escape.  Keeps recursive protocols
    terminating without a per-protocol script.
    """

    def __init__(self, rounds: int = 2):
        self.rounds = rounds
        self._visits: dict[int, int] = {}
        self._efsm: Efsm | None = None
        self._reach: dict[int, dict] = {}
        self._looping: dict[int, dict[MsgLabel, bool]] = {}

    def bind(self, e: Efsm) -> "BoundedLoopPolicy":
        self._efsm = e
        self._reach = {}
        self._looping = {}
        return self

    def loops(self, source: int, target: int) -> bool:
        """Whether the branch from `source` to `target` can return to
        `source`: one search of the machine per target, made when first
        asked for."""
        if target not in self._reach:
            e = self._efsm
            self._reach[target] = _explore(
                "loops", (target,), e.outgoing,
                lambda _, out: ((tr.action.msg, tr.target) for tr in out),
                None, len(e.states))[1]
        return source in self._reach[target]

    def choose(self, state_id, labels, rng):
        assert self._efsm is not None, "policy not bound to a machine"
        if len(labels) == 1:
            return labels[0]
        n = self._visits.get(state_id, 0)
        self._visits[state_id] = n + 1
        looping = self._looping.get(state_id)
        if looping is None:  # each branch of the state tested once
            looping = self._looping[state_id] = {
                tr.action.msg: self.loops(state_id, tr.target)
                for tr in self._efsm.outgoing(state_id)}
        want = n < self.rounds - 1  # a looping branch, else the escape
        return next((lbl for lbl in labels if looping[lbl] == want), labels[0])


# ---------------------------------------------------------------------------
# Session runner
# ---------------------------------------------------------------------------


def _decode_routed(g: GlobalType, router: Role) -> GlobalType:
    """Strip routing annotations, requiring the designated router everywhere.
    A subterm with none is returned as it is, not copied, so `g` itself comes
    back exactly when it routes nothing."""
    if isinstance(g, (GEnd, GVar)):
        return g
    if isinstance(g, GRec):
        body = _decode_routed(g.body, router)
        return g if body is g.body else GRec(g.var, body)
    branches = tuple((lbl, _decode_routed(c, router)) for lbl, c in g.branches)
    if isinstance(g, GComm):
        if all(new is old for (_, new), (_, old) in zip(branches, g.branches)):
            return g
        return GComm(g.sender, g.receiver, branches)
    if isinstance(g, GRouted):
        if g.router != router:
            raise NotEncodable(f"interaction routed via {g.router}, expected {router}")
        return GComm(g.sender, g.receiver, branches)
    raise NotEncodable(f"cannot run sessions from transit state {type(g).__name__}")


def _session_type(g: GlobalType, router: Role, tables: Tables) -> tuple[GlobalType, GlobalType]:
    """(decoding, session type) of `g`: the type is `g` if it routes nothing,
    else the encoding of its decoding through `router`, made once per tables."""
    canonical = tables.once(_decode_routed, g, router)
    return canonical, canonical if canonical is g else tables.encode(canonical, router)


def _cancellation(phase, roles: list[Role], router: Role, can_act):
    """The cancel labels `phase` enables, as `{subject: next phase}`, and
    the roles it bars from data labels.  A phase is None while live, else
    the (sender, receiver) cancel records owed, the first of which its
    label logs.  Live: a role in `can_act` (its machine can still act) may
    cancel, unlogged; then it owes its cancel to the router unless it is
    the router, and the router owes each other role a notice, in role
    order.  Pending (a client's cancel owed): the router takes it, firing no
    data label.  Notifying: only the next notice fires.  Done: nothing."""
    if phase is None:
        return {r: ((r, router),) * (r != router) + tuple(
            (router, q) for q in roles if q not in (r, router)) for r in roles if r in can_act}, ()
    if not phase:
        return {}, roles
    return {router: phase[1:]}, (router,) if phase[0][1] == router else roles


def run_session(g: GlobalType, router: Role,
                scripts: dict[Role, ChoicePolicy] | None = None,
                cfg: SimConfig = SimConfig(), *,
                tables: Tables | None = None) -> SessionLog:
    """Execute one session deterministically and return its delivery log.

    Each role runs the machine of its projection of the session type
    (`_session_type`); in a routed one the router forwards by its own Lr6/Lr7
    edges, so a routed send fires only when the router offers it.
    Each step fires one label of the rules `validate_log` searches: the
    scheduler picks an actor among the subjects of the cancel labels
    (`_cancellation`; the injector of `cfg.cancel_injection` is the only
    initiator, from its step on) and of the enabled labels its phase does
    not bar.  A cancel label goes first; at a send the policy picks among the
    actor's labels, in source order, and a receive is logged.  Client
    observations do not depend on the mode.  Raises SimulatorError if the
    injector is not a role of the session.

    The realisability precondition encodes the canonical protocol and
    projects its encoding with `tables` (fresh ones if None): a caller that
    validates the log next passes the same tables to `validate_log`.
    """
    tables = Tables() if tables is None else tables
    canonical, session = _session_type(g, router, tables)
    wf = check_wf_routed(tables.encode(canonical, router), router, tables=tables)
    if not wf.ok:
        raise SimulatorError(f"protocol not realisable through {router}: {wf.describe()}")

    # A router with no interactions of its own still forwards and propagates
    # cancellations: it has a slot in the schedule.  The empty protocol, whose
    # one role is the router, has no schedule at all.
    roles = participants(canonical) | {router}
    injector, at = cfg.cancel_injection or (None, cfg.max_steps)  # else never due
    if injector is not None and injector not in roles:
        raise SimulatorError(f"cannot inject a cancellation by {injector}: "
                             "not a role of this session")
    roles = sorted(roles) if len(roles) > 1 else []
    machines = {r: build_efsm(tables.project(session, r), r, tables=tables) for r in roles}
    # edges[r][state]: the machine's transitions as {label: target}, in source order
    edges = {r: {st.id: {tr.action: tr.target for tr in m.outgoing(st.id)} for st in m.states}
             for r, m in machines.items()}
    state = {r: machines[r].initial for r in roles}
    buffers = {(p, q): () for p in roles for q in roles if p != q}
    observed: dict[Role, list[tuple[str, str, str]]] = {r: [] for r in roles}
    scripts = {r: BoundedLoopPolicy() for r in roles} | (scripts or {})
    for r in roles:
        if isinstance(scripts[r], BoundedLoopPolicy):
            scripts[r].bind(machines[r])

    rng = random.Random(cfg.seed)
    records: list[LogRecord] = []
    phase = None  # of `_cancellation`
    step = rr_index = 0

    while step < cfg.max_steps:
        here = {r: edges[r][state[r]] for r in roles}  # each machine's edges where it is
        enabled = _enabled(here, buffers)
        cancels, barred = ({}, ()) if step < at else _cancellation(
            phase, roles, router, {r for r in roles if r == injector and here[r]})
        subjects = {label.subject for label in enabled}
        ready = [r for r in roles if r in cancels or (r in subjects and r not in barred)]
        if not ready:
            if phase == () or not any(buffers.values()) and not any(here.values()):
                break
            raise ConformanceViolation("session stuck with endpoints mid-protocol")

        if cfg.scheduler == "seeded-random":
            actor = ready[rng.randrange(len(ready))]
        else:
            while roles[rr_index % len(roles)] not in ready:
                rr_index += 1
            actor = roles[rr_index % len(roles)]
            rr_index += 1

        if actor in cancels:
            if phase is not None:
                records.append(LogRecord(step, Envelope(
                    *phase[0], None, CANCEL, f"cancelled by {injector}")))
            phase = cancels[actor]
        else:
            labels = [label for label in here[actor] if label in enabled]
            label = labels[0]
            if label.direction == SEND:
                msg = scripts[actor].choose(state[actor], tuple(lbl.msg for lbl in labels), rng)
                label = next(lbl for lbl in labels if lbl.msg == msg)
                observed[actor].append((SEND, label.receiver.name, msg.name))
            else:
                observed[actor].append((RECV, label.sender.name, label.msg.name))
                records.append(LogRecord(step, Envelope(label.sender, label.receiver, label.msg)))
            movers, pair, content = enabled[label]
            state.update(movers)
            buffers[pair] = content
        step += 1
    else:
        raise MaxStepsExceeded(f"no termination within {cfg.max_steps} steps")

    observations = tuple((r, tuple(observed[r])) for r in roles)
    return SessionLog(tuple(records), None if phase is None else CancellationRecord(
        injector, frozenset(roles) - {injector}), observations)


# ---------------------------------------------------------------------------
# Log validation
# ---------------------------------------------------------------------------


@record
class Violation:
    index: int
    detail: str

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"violation at envelope {self.index}: {self.detail}"


VALIDATION_STATE_CAP = 50_000


def parse_session_log(text: str) -> SessionLog:
    """Rebuild a SessionLog from its line serialisation.

    The wire format does not carry payload sorts, so parsed envelopes have
    bare labels; validate_log compares labels by name.  A malformed line
    raises SimulatorError naming its 1-based line.
    """
    records = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            step, sender, receiver, kind, label = line.split(",")
            data = kind == DATA
            records.append(LogRecord(int(step), Envelope(
                Role(sender), Role(receiver), MsgLabel(label) if data else None,
                kind, "" if data else label)))
        except ValueError as exc:  # InvalidType too
            raise SimulatorError(f"line {n}: {exc}") from None
    return SessionLog(tuple(records), None, ())


def _delivery_key(label: ActionLabel):
    # Conformance compares labels by name: payload sorts are inert metadata,
    # and one session type routes all deliveries of a role pair alike (`via`).
    return label.direction, label.sender.name, label.receiver.name, label.msg.name


def validate_log(g: GlobalType, router: Role, log: SessionLog,
                 state_cap: int = VALIDATION_STATE_CAP, *,
                 tables: Tables | None = None) -> Violation | bool:
    """Check that the log is a path of the LTS `run_session` walks: the
    configuration LTS of the type the session ran (`_session_type`) under
    the cancellation rule (`_cancellation`).

    A monitor that keeps one layer of keys: for record i, those that logged
    records 0..i-1.  One `_explore` call closes the layer under the steps
    that log nothing: the sends the log still owes (a channel must hold
    fewer messages than the log delivers on it from i on) and, only in a log
    with a cancel record, whose keys carry their phase, injections and sends
    cut off in flight (they move the sender and fill no buffer).  The keys
    that log record i, data by a receive and a cancel by a cancel label,
    form the next layer.  Returns True, else a `Violation` at the first
    record no key of its layer logs, or at the log's length if notices are
    still owed.  Raises StateBudgetExceeded when one layer's closure exceeds
    `state_cap` keys.  `tables` is as for `run_session`.
    """
    tables = Tables() if tables is None else tables
    owed = Counter((rec.envelope.sender, rec.envelope.receiver)
                   for rec in log.records if rec.envelope.kind == DATA)
    session = _session_type(g, router, tables)[1]
    lts = CompiledConfigurations(project_configuration(session, tables=tables), tables)
    names: dict[ActionLabel, tuple] = {}  # each label's `_delivery_key`, made once
    cancelled, roles = owed.total() < len(log.records), sorted({*lts.roles, router})

    def visit(key, edges):
        for label, succ in edges.items():
            if (names.get(label) or names.setdefault(label, _delivery_key(label))) == target:
                next_layer[succ] = None
            elif label.direction == SEND:
                if len(lts.buffer(key, label.sender, label.receiver)) \
                        < owed[label.sender, label.receiver]:
                    yield label, succ
                elif cancelled:  # cut off in flight, so never read
                    yield label, (succ[0], key[1], *succ[2:])

    def visit_phased(key, edges):
        ids, contents, phase = key
        cancels, barred = _cancellation(phase, roles, router, {
            r for r, sid in zip(lts.roles, ids) if tables.edges(sid, r)})
        for subject, nxt in cancels.items():
            if phase is None:  # an injection logs nothing
                yield subject, (ids, contents, nxt)
            elif phase[0] == target:
                next_layer[ids, contents, nxt] = None
        yield from visit(key, {label: (*succ, phase) for label, succ in edges.items()
                               if label.subject not in barred})

    layer, steps, walk = (lts.initial,), lts.steps, visit
    if cancelled:  # keys carry their phase, live (None) at the start
        layer, steps, walk = ((*lts.initial, None),), lambda key: lts.steps(key[:2]), visit_phased
    for i, env in enumerate(rec.envelope for rec in log.records):
        data = env.kind == DATA
        target = (RECV, env.sender.name, env.receiver.name, env.msg.name) if data \
            else (env.sender, env.receiver)
        next_layer: dict = {}  # the keys that log `target`, in the order found
        report = _explore("validate_log", layer, steps, walk, None, state_cap)[0]
        if report.verdict == INCONCLUSIVE:
            raise StateBudgetExceeded(state_cap, report.states_visited)
        if not next_layer:
            what = f"delivery {env.sender}->{env.receiver} {env.msg.name}" if data \
                else f"cancel {env.sender}->{env.receiver}"
            return Violation(i, f"{what} not realisable here")
        layer = next_layer
        owed[env.sender, env.receiver] -= data  # a cancel record owes nothing
    owing = cancelled and next(iter(layer))[2]  # the last layer's one phase
    return Violation(len(log.records), "the log ends where the session sends cancel {}->{}"
                     .format(*owing[0])) if owing else True
