"""Reference log validator used as an oracle for `simulator.validate_log`.

This is the plain search: per envelope, a depth-first walk over
`Configuration` values, stepped with the public `config_steps` and
deduplicated by `Configuration.canonical`, from the configurations that
delivered the envelopes before it.  The first starts from the projected
configuration of the type the session ran: the input itself if it routes
nothing, else the encoding of its decoding.  The state budget bounds each
envelope's walk.  It shares no `semantics.Tables` (step memo)
with `validate_log`.  The only speed-up is a memo of the canonical
successors of each canonical configuration, which leaves the search itself
unchanged.

In a log with records after its data prefix, which a cancellation ends, a
send on a channel whose buffer already holds every message the log still
delivers on it is never delivered: the walk takes it and leaves the buffer
as it was.  The records after the data prefix must be one of the cancellation suffixes
`run_session` emits, or none: per initiator among the session's roles (the
protocol's participants and the router), its cancel to the router unless it
is the router, then the router's notice to every other role in role order.
"""

from itertools import zip_longest

from routedmpst.analysis import StateBudgetExceeded
from routedmpst.core import RECV, SEND, ActionLabel, participants
from routedmpst.encoding import encode_global
from routedmpst.semantics import Configuration, config_steps, project_configuration
from routedmpst.simulator import (
    CANCEL, DATA, VALIDATION_STATE_CAP, Violation, _decode_routed,
)


class ReferenceValidator:
    """Validates logs of one protocol; keep one instance per protocol so its
    successor memo is reused across logs."""

    def __init__(self, g, router):
        decoded = _decode_routed(g, router)
        session = decoded if decoded is g else encode_global(decoded, router)
        self.initial = project_configuration(session).canonical()
        self._succs = {}
        roles = sorted(participants(decoded) | {router})
        self.suffixes = {
            initiator: [(initiator, router)] * (initiator != router)
            + [(router, r) for r in roles if r not in (initiator, router)]
            for initiator in roles}

    def successors(self, conf):
        if conf not in self._succs:
            self._succs[conf] = [(label, succ.canonical()) for label, succ in config_steps(conf)]
        return self._succs[conf]

    def validate(self, log, state_cap=VALIDATION_STATE_CAP):
        """(verdict, explored): `validate_log`'s result and the largest
        number of configurations the search expanded for one envelope.
        Raises StateBudgetExceeded when one envelope's search expands more
        than `state_cap`."""
        deliveries = []
        for rec in log.records:
            if rec.envelope.kind != DATA:
                break
            deliveries.append(rec.envelope)
        targets = [_by_name(ActionLabel(RECV, env.sender, env.receiver, env.msg))
                   for env in deliveries]
        # needed[i][pair]: deliveries on `pair` from envelope i onwards.
        needed = [{}]
        for env in reversed(deliveries):
            counts = dict(needed[-1])
            pair = (env.sender, env.receiver)
            counts[pair] = counts.get(pair, 0) + 1
            needed.append(counts)
        needed.reverse()

        cancelled = len(deliveries) < len(log.records)
        frontier = {self.initial}
        explored = 0
        for i, target in enumerate(targets):
            next_frontier = set()
            seen = set(frontier)
            stack = list(frontier)
            layer = 0
            while stack:
                conf = stack.pop()
                layer += 1
                if layer > state_cap:
                    raise StateBudgetExceeded(state_cap, layer)
                for label, succ in self.successors(conf):
                    if _by_name(label) == target:
                        next_frontier.add(succ)
                    elif label.direction == SEND:
                        pair = (label.sender, label.receiver)
                        if len(dict(conf.buffers)[pair]) >= needed[i].get(pair, 0):
                            if not cancelled:
                                continue
                            # Cut off in flight: never read, so kept in no buffer.
                            succ = Configuration(succ.locals, conf.buffers)
                        if succ not in seen:
                            seen.add(succ)
                            stack.append(succ)
            explored = max(explored, layer)
            if not next_frontier:
                env = deliveries[i]
                return Violation(i, f"delivery {env.sender}->{env.receiver} "
                                    f"{env.msg.name} not realisable here"), explored
            frontier = next_frontier
        return self.suffix_verdict(log.records, len(deliveries)), explored

    def suffix_verdict(self, records, start):
        """True if `records[start:]` is empty or the suffix of the initiator
        its first record names, else a Violation at the first record that
        differs from it, or at the log's length if the log stops short."""
        got = [rec.envelope for rec in records[start:]]
        if not got:
            return True
        emitted = self.suffixes.get(got[0].sender, [])
        for i, (env, pair) in enumerate(zip_longest(got, emitted)):
            sends = "nothing" if pair is None else f"cancel {pair[0]}->{pair[1]}"
            if env is None:
                return Violation(start + i, f"the log ends where the session sends {sends}")
            if (env.kind, env.sender, env.receiver) != (CANCEL, *(pair or (None, None))):
                return Violation(start + i, f"{env.kind} {env.sender}->{env.receiver} "
                                            f"where the session sends {sends}")
        return True


def _by_name(label):
    # Within one session type a delivery's `via` is fixed by its role pair.
    return (label.direction, label.sender.name, label.receiver.name, label.msg.name)
