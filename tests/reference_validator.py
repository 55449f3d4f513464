"""Reference log validator used as an oracle for `simulator.validate_log`.

This is the plain search: per record, a depth-first walk over
`Configuration` values, stepped with the public `config_steps` and
deduplicated by `Configuration.canonical`, from the keys that logged the
records before it.  The first starts from the projected configuration of
the type the session ran: the input itself if it routes nothing, else the
encoding of its decoding.  The state budget bounds each record's walk.
It shares no `semantics.Tables` (step memo) with `validate_log`.  The only
speed-up is a memo of the canonical successors of each canonical
configuration, which leaves the search itself unchanged.

A key is a configuration and the session's cancellation phase, written out
here by this module's own code, not by `simulator._cancellation`: None
while the session is live, else the cancel records still owed.  While
live, a role whose local type can still step may cancel, which logs
nothing: it then owes its cancel to the router (none when it is the
router), and the router owes a notice to every other role in role order.
While a client's cancel is owed the router takes no data step; while
notices are owed, and once nothing is, no role does.  A cancel record must
be the first owed record, and the log may not end while any is owed.

Only in a log that holds a cancel record does the walk take these
cancellation steps, and a send on a channel whose buffer already holds
every message the log still delivers on it: such a send is never
delivered, so the walk moves its sender and leaves the buffer as it was.
"""

from routedmpst.analysis import StateBudgetExceeded
from routedmpst.core import RECV, SEND, ActionLabel, participants
from routedmpst.encoding import encode_global
from routedmpst.semantics import (
    Configuration, config_steps, local_steps, project_configuration,
)
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
        self.router = router
        self.roles = sorted(participants(decoded) | {router})
        self.suffixes = {
            initiator: ((initiator, router),) * (initiator != router)
            + tuple((router, r) for r in self.roles if r not in (initiator, router))
            for initiator in self.roles}

    def successors(self, conf):
        if conf not in self._succs:
            self._succs[conf] = [(label, succ.canonical()) for label, succ in config_steps(conf)]
        return self._succs[conf]

    def cancel_steps(self, conf, phase):
        """([(logged record or None, next phase)], roles barred from data
        steps) of the key (conf, phase)."""
        if phase is None:
            live = [r for r, t in conf.locals if local_steps(t, r)]
            return [(None, self.suffixes[r]) for r in live if r in self.suffixes], ()
        if not phase:
            return [], self.roles
        return [(phase[0], phase[1:])], [self.router] if phase[0][1] == self.router else self.roles

    def validate(self, log, state_cap=VALIDATION_STATE_CAP):
        """(verdict, explored): `validate_log`'s result and the largest
        number of keys the search expanded for one record.  Raises
        StateBudgetExceeded when one record's search expands more than
        `state_cap`."""
        envelopes = [rec.envelope for rec in log.records]
        # needed[i][pair]: deliveries on `pair` from record i onwards.
        needed = [{}]
        for env in reversed(envelopes):
            counts = dict(needed[-1])
            if env.kind == DATA:
                pair = (env.sender, env.receiver)
                counts[pair] = counts.get(pair, 0) + 1
            needed.append(counts)
        needed.reverse()

        cancelled = any(env.kind == CANCEL for env in envelopes)
        frontier = {(self.initial, None)}
        explored = 0
        for i, env in enumerate(envelopes):
            target = _by_name(ActionLabel(RECV, env.sender, env.receiver, env.msg)) \
                if env.kind == DATA else None
            next_frontier = set()
            seen = set(frontier)
            stack = list(frontier)
            layer = 0

            def reach(key):
                if key not in seen:
                    seen.add(key)
                    stack.append(key)

            while stack:
                conf, phase = stack.pop()
                layer += 1
                if layer > state_cap:
                    raise StateBudgetExceeded(state_cap, layer)
                barred = ()
                if cancelled:
                    steps, barred = self.cancel_steps(conf, phase)
                    for logged, after in steps:
                        if logged is None:
                            reach((conf, after))
                        elif (CANCEL, *logged) == (env.kind, env.sender, env.receiver):
                            next_frontier.add((conf, after))
                for label, succ in self.successors(conf):
                    if label.subject in barred:
                        continue
                    if _by_name(label) == target:
                        next_frontier.add((succ, phase))
                    elif label.direction == SEND:
                        pair = (label.sender, label.receiver)
                        if len(dict(conf.buffers)[pair]) >= needed[i].get(pair, 0):
                            if not cancelled:
                                continue
                            # Cut off in flight: never read, so kept in no buffer.
                            succ = Configuration(succ.locals, conf.buffers)
                        reach((succ, phase))
            explored = max(explored, layer)
            if not next_frontier:
                what = f"delivery {env.sender}->{env.receiver} {env.msg.name}" \
                    if env.kind == DATA else f"{env.kind} {env.sender}->{env.receiver}"
                return Violation(i, f"{what} not realisable here"), explored
            frontier = next_frontier
        owing = [phase[0] for _, phase in frontier if phase]
        if len(owing) == len(frontier):
            return Violation(len(envelopes), "the log ends where the session sends "
                                             f"cancel {owing[0][0]}->{owing[0][1]}"), explored
        return True, explored


def _by_name(label):
    # Within one session type a delivery's `via` is fixed by its role pair.
    return (label.direction, label.sender.name, label.receiver.name, label.msg.name)
