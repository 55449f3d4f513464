"""Deterministic in-process session execution.

Each role runs the state machine of its projection of the session type,
decided once by `_session_type`: a canonical protocol, whose client-to-client
messages travel directly, or its routed encoding, whose router forwards them
by its own machine's edges.  A session is one walk of these machines, with a
FIFO buffer per ordered role pair, through the configuration rule
(`semantics._enabled`); log validation searches the configuration LTS of the
same type by the same rule, so every log is a path of the LTS it checks.
Cancellation by any endpoint travels to the router and is propagated to
every other role, after which no data is delivered.

Observable behaviour (delivery order, observations) is a pure function of
the protocol, the scripts and the configuration seed.

The module has no search loop of its own: log validation (one closure of
a layer per envelope) and the loop policy's test (which states a branch
target reaches) run `analysis._explore`.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import zip_longest

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


def run_session(g: GlobalType, router: Role,
                scripts: dict[Role, ChoicePolicy] | None = None,
                cfg: SimConfig = SimConfig(), *,
                tables: Tables | None = None) -> SessionLog:
    """Execute one session deterministically and return its delivery log.

    Each role runs the machine of its projection of the session type
    (`_session_type`); in a routed one the router forwards by its own Lr6/Lr7
    edges, so a routed send fires only when the router offers it.
    Each step fires one label of the configuration rule `validate_log`
    searches: the scheduler picks an actor among the subjects of enabled
    labels; at a send its policy picks among them, in source order, and a
    receive is logged.  Client observations do not depend on the mode.
    Raises SimulatorError if `cfg.cancel_injection` names a role outside
    the session.

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
    injector, at = cfg.cancel_injection or (None, 0)
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
    pending: Envelope | None = None  # a cancellation on its way to the router
    records: list[LogRecord] = []
    cancellation: CancellationRecord | None = None
    step = 0
    rr_index = 0

    def propagate_cancel(initiator: Role, reason: str):
        nonlocal cancellation, step
        for r in roles:
            if r not in (initiator, router):
                records.append(LogRecord(step, Envelope(router, r, None, CANCEL, reason)))
                step += 1
        cancellation = CancellationRecord(initiator, frozenset(roles) - {initiator})

    while step < cfg.max_steps:
        if cancellation is not None:
            break
        enabled = _enabled({r: edges[r][state[r]] for r in roles}, buffers)
        subjects = {label.subject for label in enabled}
        cancel_due = (pending is None and injector is not None and step >= at
                      and bool(edges[injector][state[injector]]))
        ready = [r for r in roles if r in subjects or (r == router and pending is not None)
                 or (r == injector and cancel_due)]
        if not ready:
            if not any(buffers.values()) and not any(edges[r][state[r]] for r in roles):
                break
            raise ConformanceViolation("session stuck with endpoints mid-protocol")

        if cfg.scheduler == "seeded-random":
            actor = ready[rng.randrange(len(ready))]
        else:
            while roles[rr_index % len(roles)] not in ready:
                rr_index += 1
            actor = roles[rr_index % len(roles)]
            rr_index += 1

        if actor == router and pending is not None:
            records.append(LogRecord(step, pending))
            step += 1
            propagate_cancel(pending.sender, pending.reason)
            continue
        if actor == injector and cancel_due:
            step += 1
            if actor == router:  # the router handles its own cancellation without a hop
                propagate_cancel(actor, f"cancelled by {actor}")
            else:
                pending = Envelope(actor, router, None, CANCEL, f"cancelled by {actor}")
            continue
        labels = [label for label in edges[actor][state[actor]] if label in enabled]
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
    return SessionLog(tuple(records), cancellation, observations)


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
    """Check that the log's data-envelope prefix is realisable, and that the
    records after it are the cancellation `run_session` emits, if any.
    Realisable: there must be an interleaving of sends under which the
    configuration LTS of the type the session ran (`_session_type`)
    performs exactly these deliveries, in order.

    A monitor that keeps one layer of configuration keys: for envelope i,
    those that delivered envelopes 0..i-1.  One `_explore` call closes the
    layer under the sends the log still owes (a channel must hold fewer
    messages than the log delivers on it from i on); the keys that deliver
    envelope i form the next layer.  In a cancelled log, a send may also be
    cut off in flight: it moves its sender and fills no buffer.  Returns
    True, else a `Violation` at the first bad record (0-based): an envelope
    that no key of its layer delivers, or a record after the data.  Raises
    StateBudgetExceeded when one layer's closure exceeds `state_cap` keys.
    `tables` is as for `run_session`.
    """
    tables = Tables() if tables is None else tables
    deliveries: list[Envelope] = []
    for rec in log.records:
        if rec.envelope.kind != DATA:
            break
        deliveries.append(rec.envelope)
    owed = Counter((env.sender, env.receiver) for env in deliveries)
    session = _session_type(g, router, tables)[1]
    lts = CompiledConfigurations(project_configuration(session, tables=tables), tables)
    names: dict[ActionLabel, tuple] = {}  # each label's `_delivery_key`, made once
    cancelled = len(deliveries) < len(log.records)

    def visit(conf, edges):
        for label, succ in edges.items():
            if (names.get(label) or names.setdefault(label, _delivery_key(label))) == target:
                next_layer[succ] = None
            elif label.direction == SEND:
                if len(lts.buffer(conf, label.sender, label.receiver)) \
                        < owed[label.sender, label.receiver]:
                    yield label, succ
                elif cancelled:  # cut off in flight, so never read
                    yield label, (succ[0], conf[1])

    layer = (lts.initial,)
    for i, env in enumerate(deliveries):
        target = (RECV, env.sender.name, env.receiver.name, env.msg.name)
        next_layer: dict = {}  # visit's deliveries of `target`, in the order found
        report = _explore("validate_log", layer, lts.steps, visit, None, state_cap)[0]
        if report.verdict == INCONCLUSIVE:
            raise StateBudgetExceeded(state_cap, report.states_visited)
        if not next_layer:
            return Violation(i, f"delivery {env.sender}->{env.receiver} "
                                f"{env.msg.name} not realisable here")
        layer = next_layer
        owed[env.sender, env.receiver] -= 1
    # After the data, `run_session` emits nothing or one cancellation: a
    # cancel from its initiator, a role the first record names, to the
    # router unless the router initiates, then one from the router to each
    # other role in order.  A record missing at the end is a violation at
    # the log's length.
    got = [(rec.envelope.kind, rec.envelope.sender, rec.envelope.receiver)
           for rec in log.records[len(deliveries):]]
    initiator, roles = got[0][1] if got else None, sorted({*lts.roles, router})
    emitted = [] if initiator not in roles else [(CANCEL, initiator, router)] * (
        initiator != router) + [(CANCEL, router, r) for r in roles if r not in (initiator, router)]
    for i, (seen, sent) in enumerate(zip_longest(got, emitted), len(deliveries)):
        if seen != sent:
            seen = "the log ends" if seen is None else f"{seen[0]} {seen[1]}->{seen[2]}"
            sent = "nothing" if sent is None else f"cancel {sent[1]}->{sent[2]}"
            return Violation(i, f"{seen} where the session sends {sent}")
    return True
