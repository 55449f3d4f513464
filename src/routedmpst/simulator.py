"""Deterministic in-process session execution.

One logical endpoint per role is driven by the state machine of its canonical
projection.  Given a canonical protocol, the wire layer delivers
client-to-client traffic directly; given the protocol's routed encoding, it
routes that traffic through the router endpoint, which inspects envelope
metadata and forwards anything not addressed to itself.  Cancellation by any
endpoint travels to the router and is propagated to every other role, after
which no data is delivered.

Observable behaviour (delivery order, payload bytes, observations) is a pure
function of the protocol, the scripts and the configuration seed.
"""

from __future__ import annotations

import random
from collections import Counter

from .core import (
    GComm, GEnd, GRec, GRouted, GVar, GlobalType, MsgLabel, RECV, Role, SEND,
    participants, record,
)
from .analysis import StateBudgetExceeded
from .efsm import Efsm, STATE_RECEIVE, STATE_SEND, STATE_TERMINAL, build_efsm
from .projection import project
from .semantics import ActionLabel, CompiledConfigurations, Tables, project_configuration
from .wellformed import check_wf_routed

DATA = "data"
CANCEL = "cancel"


class SimulatorError(Exception):
    pass


class ConformanceViolation(SimulatorError):
    """An endpoint attempted an action its machine does not enable (engine bug)."""


class MaxStepsExceeded(SimulatorError):
    pass


class NotEncodable(SimulatorError):
    """The input type routes through a role other than the designated router."""


@record
class Envelope:
    sender: Role
    receiver: Role
    msg: MsgLabel | None
    payload: bytes
    kind: str = DATA
    reason: str = ""

    def __post_init__(self):
        assert self.sender != self.receiver
        assert self.kind in (DATA, CANCEL)


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

    def observed(self, role: Role) -> tuple[tuple[str, str, str], ...]:
        for r, events in self.observations:
            if r == role:
                return events
        raise KeyError(role)

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


class FixedScript(ChoicePolicy):
    """Selects labels from a fixed list, by name, in order."""

    def __init__(self, labels):
        self._labels = list(labels)
        self._next = 0

    def choose(self, state_id, labels, rng):
        if self._next >= len(self._labels):
            raise ConformanceViolation("fixed script exhausted")
        want = self._labels[self._next]
        self._next += 1
        for lbl in labels:
            if lbl.name == want:
                return lbl
        raise ConformanceViolation(f"scripted label {want!r} not enabled")


class SeededRandomPolicy(ChoicePolicy):
    def choose(self, state_id, labels, rng):
        return labels[rng.randrange(len(labels))]


class BoundedLoopPolicy(ChoicePolicy):
    """Takes looping branches a fixed number of times, then escapes.

    A branch loops when its target can reach the current state again, that
    is, when both lie in one strongly connected component of the machine;
    the first non-looping branch is the escape.  Keeps recursive protocols
    terminating without a per-protocol script.
    """

    def __init__(self, rounds: int = 2):
        self.rounds = rounds
        self._visits: dict[int, int] = {}
        self._efsm: Efsm | None = None
        self._component: dict[int, int] = {}

    def bind(self, e: Efsm) -> "BoundedLoopPolicy":
        """Name each strongly connected component of `e` by the state that
        closes it, in one iterative pass of Tarjan's algorithm."""
        self._efsm = e
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        component = self._component = {}
        open_states: list[int] = []  # visited, component not yet closed
        for root in (s.id for s in e.states):
            if root in index:
                continue
            index[root] = low[root] = len(index)
            open_states.append(root)
            work = [(root, iter(e.outgoing(root)))]
            while work:
                v, edges = work[-1]
                for tr in edges:
                    w = tr.target
                    if w not in index:
                        index[w] = low[w] = len(index)
                        open_states.append(w)
                        work.append((w, iter(e.outgoing(w))))
                        break
                    if w not in component:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        low[work[-1][0]] = min(low[work[-1][0]], low[v])
                    if low[v] == index[v]:
                        while v not in component:
                            component[open_states.pop()] = v
        return self

    def loops(self, source: int, target: int) -> bool:
        """Whether the branch from `source` to `target` can return to `source`."""
        return self._component[source] == self._component[target]

    def choose(self, state_id, labels, rng):
        assert self._efsm is not None, "policy not bound to a machine"
        n = self._visits.get(state_id, 0)
        self._visits[state_id] = n + 1
        by_label = {tr.action.msg: tr.target for tr in self._efsm.outgoing(state_id)}
        looping = [lbl for lbl in labels if self.loops(state_id, by_label[lbl])]
        escaping = [lbl for lbl in labels if not self.loops(state_id, by_label[lbl])]
        if n < self.rounds - 1 and looping:
            return looping[0]
        return (escaping or labels)[0]


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


def run_session(g: GlobalType, router: Role,
                scripts: dict[Role, ChoicePolicy] | None = None,
                cfg: SimConfig = SimConfig(), *,
                tables: Tables | None = None) -> SessionLog:
    """Execute one session deterministically and return its delivery log.

    `g` may be the canonical protocol (messages delivered directly) or its
    routed encoding (client-to-client messages forwarded by the router); the
    machines driving the endpoints are identical either way, so client
    observations do not depend on the mode.  Raises SimulatorError if
    `cfg.cancel_injection` names a role outside the session.

    The realisability precondition encodes the canonical protocol and
    projects its encoding with `tables` (fresh ones if None): a caller that
    validates the log next passes the same tables to `validate_log`.
    """
    canonical = _decode_routed(g, router)
    routed_mode = canonical is not g
    tables = Tables() if tables is None else tables
    wf = check_wf_routed(tables.encode(canonical, router), router, tables=tables)
    if not wf.ok:
        raise SimulatorError(f"protocol not realisable through {router}: {wf.describe()}")

    # A router with no interactions of its own still forwards and propagates
    # cancellations: it has a slot in the schedule and projects to end.  The
    # empty protocol, whose one role is the router, has no schedule at all.
    roles = participants(canonical) | {router}
    if cfg.cancel_injection is not None and cfg.cancel_injection[0] not in roles:
        raise SimulatorError(f"cannot inject a cancellation by {cfg.cancel_injection[0]}: "
                             "not a role of this session")
    roles = sorted(roles) if len(roles) > 1 else []
    machines = {r: build_efsm(project(canonical, r), r) for r in roles}
    state = {r: machines[r].initial for r in roles}
    observed: dict[Role, list[tuple[str, str, str]]] = {r: [] for r in roles}
    scripts = {r: BoundedLoopPolicy() for r in roles} | (scripts or {})
    for r in roles:
        if isinstance(scripts[r], BoundedLoopPolicy):
            scripts[r].bind(machines[r])

    rng = random.Random(cfg.seed)
    queues: dict[tuple[Role, Role], list[Envelope]] = \
        {(p, q): [] for p in roles for q in roles if p != q}
    staging: list[Envelope] = []  # router hop for client-to-client traffic
    control: list[Envelope] = []  # cancellations travel to the router
    payload_counters: Counter[str] = Counter()
    records: list[LogRecord] = []
    cancellation: CancellationRecord | None = None
    cancel_sent = False
    step = 0
    rr_index = 0

    def payload_for(msg: MsgLabel) -> bytes:
        # Content is semantically inert: a seeded counter per sort keeps
        # payloads deterministic and distinguishable across runs.
        parts = []
        for sort in msg.payload_sorts:
            parts.append(f"{sort}#{cfg.seed}.{payload_counters[sort]}")
            payload_counters[sort] += 1
        return ",".join(parts).encode()

    def ready_action(role: Role):
        """The micro action `role` could take now, or None."""
        if role == router and (control or staging):
            return ("route",)
        here = machines[role].state(state[role]).kind
        if (cfg.cancel_injection is not None and not cancel_sent
                and role == cfg.cancel_injection[0]
                and step >= cfg.cancel_injection[1]
                and here != STATE_TERMINAL):
            return ("cancel",)
        if here == STATE_SEND:
            return ("send",)
        if here == STATE_RECEIVE:
            for tr in machines[role].outgoing(state[role]):
                q = queues[(tr.action.sender, role)]
                if q and q[0].kind == DATA and q[0].msg == tr.action.msg:
                    return ("recv", tr)
        return None

    def propagate_cancel(initiator: Role, reason: str):
        nonlocal cancellation, step
        notified = []
        for r in roles:
            if r in (initiator, router):
                continue
            env = Envelope(router, r, None, reason.encode(), CANCEL, reason)
            records.append(LogRecord(step, env))
            step += 1
            notified.append(r)
        if router != initiator:
            notified.append(router)
        cancellation = CancellationRecord(initiator, frozenset(notified))

    while step < cfg.max_steps:
        if cancellation is not None:
            break
        ready = {r: action for r in roles if (action := ready_action(r)) is not None}
        if not ready:
            if all(machines[r].state(state[r]).kind == STATE_TERMINAL for r in roles) \
                    and not staging and not control \
                    and all(not q for q in queues.values()):
                break
            raise ConformanceViolation("session stuck with endpoints mid-protocol")

        if cfg.scheduler == "seeded-random":
            actor = list(ready)[rng.randrange(len(ready))]
        else:
            while roles[rr_index % len(roles)] not in ready:
                rr_index += 1
            actor = roles[rr_index % len(roles)]
            rr_index += 1

        action = ready[actor]
        if action[0] == "route":
            if control:
                env = control.pop(0)
                records.append(LogRecord(step, env))
                step += 1
                propagate_cancel(env.sender, env.reason)
                continue
            env = staging.pop(0)
            queues[(env.sender, env.receiver)].append(env)
            step += 1
        elif action[0] == "cancel":
            reason = f"cancelled by {actor}"
            cancel_sent = True
            step += 1
            if actor == router:
                # The router handles its own cancellation without a hop.
                propagate_cancel(actor, reason)
            else:
                control.append(Envelope(actor, router, None, reason.encode(), CANCEL, reason))
        elif action[0] == "send":
            outs = machines[actor].outgoing(state[actor])
            receiver = outs[0].action.receiver
            msg = scripts[actor].choose(state[actor], tuple(tr.action.msg for tr in outs), rng)
            env = Envelope(actor, receiver, msg, payload_for(msg))
            if routed_mode and router not in (actor, receiver):
                staging.append(env)
            else:
                queues[(actor, receiver)].append(env)
            observed[actor].append((SEND, receiver.name, msg.name))
            state[actor] = {tr.action.msg: tr.target for tr in outs}[msg]
            step += 1
        else:
            _, tr = action
            env = queues[(tr.action.sender, actor)].pop(0)
            observed[actor].append((RECV, tr.action.sender.name, tr.action.msg.name))
            state[actor] = tr.target
            records.append(LogRecord(step, env))
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

    The wire format does not carry payload sorts or bytes, so parsed
    envelopes have bare labels and empty payloads; validate_log compares
    labels by name.
    """
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        step, sender, receiver, kind, label = line.split(",")
        if kind == DATA:
            env = Envelope(Role(sender), Role(receiver), MsgLabel(label), b"")
        else:
            env = Envelope(Role(sender), Role(receiver), None, b"", CANCEL, label)
        records.append(LogRecord(int(step), env))
    return SessionLog(tuple(records), None, ())


def _delivery_key(label: ActionLabel):
    # Payload sorts are inert metadata; conformance compares labels by name.
    via = label.via.name if label.via else ""
    return (label.direction, label.sender.name, label.receiver.name, via,
            label.msg.name)


def validate_log(g: GlobalType, router: Role, log: SessionLog,
                 state_cap: int = VALIDATION_STATE_CAP, *,
                 tables: Tables | None = None) -> Violation | bool:
    """Check that the log's data-envelope prefix is realisable: there must be
    an interleaving of sends under which the configuration LTS of the encoded
    type performs exactly these deliveries, in order.

    Returns True on success, otherwise a `Violation` naming the first data
    envelope (0-based among them) that no interleaving can deliver.  Raises
    StateBudgetExceeded after `state_cap` configurations are expanded.
    `tables` is as for `run_session`.
    """
    tables = Tables() if tables is None else tables
    encoded = tables.encode(_decode_routed(g, router), router)
    deliveries: list[Envelope] = []
    for rec in log.records:
        if rec.envelope.kind != DATA:
            break
        deliveries.append(rec.envelope)
    # owed[pair]: deliveries on `pair` from the current envelope onwards.
    owed = Counter((env.sender, env.receiver) for env in deliveries)

    # Configurations are compiled keys; dicts serve as insertion-ordered sets
    # so the search order does not depend on hashing.
    lts = CompiledConfigurations(project_configuration(encoded, tables=tables), tables)
    frontier = {lts.initial: None}
    explored = 0
    for i, env in enumerate(deliveries):
        via = "" if router in (env.sender, env.receiver) else router.name
        target = (RECV, env.sender.name, env.receiver.name, via, env.msg.name)
        next_frontier = {}
        seen = set(frontier)
        stack = list(frontier)
        while stack:
            conf = stack.pop()
            explored += 1
            if explored > state_cap:
                raise StateBudgetExceeded(state_cap, explored)
            for label, succ in lts.steps(conf):
                if _delivery_key(label) == target:
                    next_frontier[succ] = None
                elif label.direction == SEND:
                    pair = (label.sender, label.receiver)
                    if len(lts.buffer(conf, *pair)) >= owed[pair]:
                        continue  # nothing left in the log could consume it
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
        if not next_frontier:
            return Violation(i, f"delivery {env.sender}->{env.receiver} "
                                f"{env.msg.name} not realisable here")
        owed[(env.sender, env.receiver)] -= 1
        frontier = next_frontier
    return True
