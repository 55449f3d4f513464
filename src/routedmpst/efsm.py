"""Endpoint finite state machines: build the explicit state/transition graph
of a local type, render it as DOT, and serialise a machine-readable IR.

States are the distinct canonical subterms reached by structural traversal,
with recursion resolved to back-edges.  A state is keyed by the id, in a
`semantics.Tables`, of the first structural node of its subterm, equal for
two subterms exactly when their canonical forms are: a binder id steps by
`unfold_id`, and a successor's id is read from the state's key node by its
head rule (`semantics.local_head_steps`), so no type is built or walked
after the root's one walk.  Actions that commute past a prefix are left
out.  The source type gives only branch order: a state keeps the source
node it was first met at; a back edge needs none.  Numbering is
breadth-first from the initial state (branches in source order), never by
id, which keeps diagram numbering and golden files stable.
"""

from __future__ import annotations

from functools import cached_property

from .core import ActionLabel, LRec, LRouter, LocalType, Role, SEND, record
from .semantics import Tables, local_head_steps

STATE_SEND = "send"
STATE_RECEIVE = "receive"
STATE_TERMINAL = "terminal"


@record
class EfsmState:
    id: int
    kind: str


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


def build_efsm(t: LocalType, self_role: Role, *, tables: Tables | None = None) -> Efsm:
    """Construct the endpoint state machine of a closed local type, its
    states keyed by the ids of `tables` (fresh ones if None).  InvalidType,
    a ValueError, unless `t` is a valid closed type (`Tables.intern`)."""
    tables = Tables() if tables is None else tables
    numbers: dict[int, int] = {}  # structural id -> state number
    order: list[tuple[int, LocalType]] = []  # per state: structural id, source node

    def state_id(sid: int, node: LocalType) -> int:
        while isinstance(tables.keys[sid], LRec):
            sid = tables.unfold_id(sid)
        if sid not in numbers:
            # A variable's state was numbered when its binder was entered,
            # so a new state's source strips binders to a structural node.
            while isinstance(node, LRec):
                node = node.body
            numbers[sid] = len(order) + 1
            order.append((sid, node))
        return numbers[sid]

    transitions: list[EfsmTransition] = []
    states: list[EfsmState] = []
    state_id(tables.intern(t), t)
    for number, (sid, node) in enumerate(order, 1):  # a queue: state_id appends to it
        key = tables.keys[sid]
        steps = local_head_steps(key, self_role, tables.rules)
        states.append(EfsmState(number, _kind_of(steps)))
        by_name = {label.msg.name: (label, succ) for label, succ in steps}
        for lbl, cont in node.branches if steps else ():  # in source order
            if lbl.name in by_name:
                label, succ = by_name[lbl.name]
                # Lr6 leads to the in-transit form of the router node itself.
                target = state_id(succ if type(succ) is int else tables.key_id(succ),
                                  node if type(key) is LRouter else cont)
                transitions.append(EfsmTransition(number, target, label))

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
    encoder is pure Python.  A string is quoted as it is when JSON escapes
    none of its characters, else by `json.dumps` (`_quote`).
    """
    states = ",\n".join(
        f'    {{\n      "id": {st.id},\n      "kind": {_quote(st.kind)}\n    }}'
        for st in e.states)
    transitions = ",\n".join(
        _transition_ir(tr, e.role)
        for tr in sorted(e.transitions, key=lambda t: (t.source, t.action.sort_key())))
    return (f'{{\n  "initial": {e.initial},\n  "role": {_quote(e.role.name)},\n'
            f'  "states": {_ir_list(states, "  ")},\n'
            f'  "transitions": {_ir_list(transitions, "  ")}\n}}\n')


def _quote(s: str) -> str:
    """`s` as a JSON string, as `json.dumps` writes it.  A printable ASCII
    string with no `"` or `\\` is written as it is; only another one imports
    `json`."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json
    return json.dumps(s)


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
    payloads = ",\n".join(f"        {_quote(sort)}" for sort in act.msg.payload_sorts)
    fields = [f'"dir": {_quote(act.direction)}', f'"from": {tr.source}']
    if from_role is not None:
        fields.append(f'"from_role": {_quote(from_role.name)}')
    fields += [f'"label": {_quote(act.msg.name)}',
               f'"payloads": {_ir_list(payloads, "      ")}',
               f'"peer": {_quote(peer.name)}',
               f'"to": {tr.target}']
    if act.via is not None:
        fields.append(f'"via": {_quote(act.via.name)}')
    return "    {\n      " + ",\n      ".join(fields) + "\n    }"
