"""Endpoint finite state machines: build the explicit state/transition graph
of a local type, render it as DOT, and serialise a machine-readable IR.

States are the distinct canonical subterms reached by structural traversal,
with recursion resolved to back-edges.  A subterm is unfolded down to its
first structural node and keyed by that node's `core.CanonicalIds` id, which
is equal for two subterms exactly when their canonical forms are; the ids
are hash-consed, so keying costs one walk per node met, and no canonical
form is built; a back edge reaches its binder's one unfolding
(`CanonicalIds.unfold`).  The edges of a state are the local head rules of
its node (`semantics.local_head_steps`); actions that commute past a prefix
are left out.  Numbering is breadth-first from the initial state
(branches in source order), never by id, which keeps diagram numbering and
golden files stable.
"""

from __future__ import annotations

import json
from functools import cached_property

from .core import ActionLabel, CanonicalIds, LRec, LocalType, Role, SEND, record, validate
from .semantics import local_head_steps

STATE_SEND = "send"
STATE_RECEIVE = "receive"
STATE_TERMINAL = "terminal"


@record
class EfsmState:
    id: int
    kind: str
    local_type: LocalType  # closed form of the subterm this state stands for


@record
class EfsmTransition:
    source: int
    target: int
    action: ActionLabel

    def display(self, self_role: Role) -> str:
        """Diagram edge label, e.g. "B?Suggest" or "B!Quote (via S)"."""
        act = self.action
        if self_role in (act.sender, act.receiver):
            peer = act.receiver if act.sender == self_role else act.sender
            base = f"{peer}{act.direction}{act.msg.name}"
        else:
            base = f"{act.sender}->{act.receiver}{act.direction}{act.msg.name}"
        if act.via is not None:
            base += f" (via {act.via})"
        return base


@record
class Efsm:
    role: Role
    states: tuple[EfsmState, ...]
    transitions: tuple[EfsmTransition, ...]
    initial: int = 1

    def state(self, sid: int) -> EfsmState:
        return self.states[sid - 1]

    def outgoing(self, sid: int) -> tuple[EfsmTransition, ...]:
        return self._by_source.get(sid, ())

    @cached_property
    def _by_source(self) -> dict[int, tuple[EfsmTransition, ...]]:
        by_source: dict[int, list[EfsmTransition]] = {}
        for tr in self.transitions:
            by_source.setdefault(tr.source, []).append(tr)
        return {sid: tuple(trs) for sid, trs in by_source.items()}


def _kind_of(actions) -> str:
    if not actions:
        return STATE_TERMINAL
    dirs = {a.direction for a, _ in actions}
    assert len(dirs) == 1, "mixed send/receive state cannot arise from the local grammar"
    return STATE_SEND if dirs == {SEND} else STATE_RECEIVE


def build_efsm(t: LocalType, self_role: Role) -> Efsm:
    """Construct the endpoint state machine of a closed local type."""
    validate(t)  # InvalidType, a ValueError, on an open type
    ids = CanonicalIds()

    numbers: dict[int, int] = {}  # canonical id -> state number
    order: list[LocalType] = []

    def state_id(node: LocalType) -> int:
        while isinstance(node, LRec):  # unfold down to a structural node
            node = ids.unfold(node)
        key = ids.of(node)
        if key not in numbers:
            numbers[key] = len(order) + 1
            order.append(node)
        return numbers[key]

    transitions: list[EfsmTransition] = []
    states: list[EfsmState] = []
    state_id(t)
    for node in order:  # a breadth-first queue: state_id appends to it
        sid = len(states) + 1
        actions = local_head_steps(node, self_role)
        states.append(EfsmState(sid, _kind_of(actions), node))
        for action, cont in actions:
            transitions.append(EfsmTransition(sid, state_id(cont), action))

    return Efsm(self_role, tuple(states), tuple(transitions))


def render_dot(e: Efsm) -> str:
    """Valid DOT digraph; node ids are the stable state indices."""
    lines = [f"digraph {e.role.name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for st in e.states:
        shape = "doublecircle" if st.kind == STATE_TERMINAL else "circle"
        lines.append(f"  {st.id} [shape={shape}];")
    lines.append(f"  __start -> {e.initial};")
    for tr in sorted(e.transitions, key=lambda t: (t.source, t.action.sort_key())):
        lines.append(f'  {tr.source} -> {tr.target} [label="{tr.display(e.role)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def efsm_ir(e: Efsm) -> str:
    """Stable JSON IR: {initial, role, states, transitions}, sorted keys.

    The text is written directly for this fixed schema and is byte-equal to
    `json.dumps(payload, indent=2, sort_keys=True) + "\\n"`, whose indenting
    encoder is pure Python; strings still go through `json.dumps`.
    """
    states = ",\n".join(
        f'    {{\n      "id": {st.id},\n      "kind": {json.dumps(st.kind)}\n    }}'
        for st in e.states)
    transitions = ",\n".join(
        _transition_ir(tr, e.role)
        for tr in sorted(e.transitions, key=lambda t: (t.source, t.action.sort_key())))
    return (f'{{\n  "initial": {e.initial},\n  "role": {json.dumps(e.role.name)},\n'
            f'  "states": {_ir_list(states, "  ")},\n'
            f'  "transitions": {_ir_list(transitions, "  ")}\n}}\n')


def _ir_list(items: str, indent: str) -> str:
    """A JSON list of already indented, comma-joined items; `[]` when empty."""
    return f"[\n{items}\n{indent}]" if items else "[]"


def _transition_ir(tr: EfsmTransition, me: Role) -> str:
    act = tr.action
    if me in (act.sender, act.receiver):
        peer = act.receiver if act.sender == me else act.sender
        from_role = None
    else:
        peer = act.receiver  # router forwarding: the delivery target
        from_role = act.sender  # router machines need both endpoints
    payloads = ",\n".join(f"        {json.dumps(sort)}" for sort in act.msg.payload_sorts)
    fields = [f'"dir": {json.dumps(act.direction)}', f'"from": {tr.source}']
    if from_role is not None:
        fields.append(f'"from_role": {json.dumps(from_role.name)}')
    fields += [f'"label": {json.dumps(act.msg.name)}',
               f'"payloads": {_ir_list(payloads, "      ")}',
               f'"peer": {json.dumps(peer.name)}',
               f'"to": {tr.target}']
    if act.via is not None:
        fields.append(f'"via": {json.dumps(act.via.name)}')
    return "    {\n      " + ",\n      ".join(fields) + "\n    }"
