"""A reference `build_efsm`: the earlier version, which unfolds recursion
on type objects and keys each state by the canonical form of its whole
subterm, by the reference `canonical_oracle.canonicalize` (quadratic on
long sequences).  Kept as an oracle for the one in
`routedmpst.efsm`, which keys states by the ids of a `semantics.Tables` and
unfolds on ids.  `build` also gives the local type each state stands for,
which the machine itself does not keep.  Also the earlier IR, built as a
dict and serialised by `json.dumps`, as an oracle for `efsm_ir`, which
writes the text directly."""

import json

from routedmpst.core import LRec, validate
from routedmpst.efsm import Efsm, EfsmState, EfsmTransition, _kind_of
from routedmpst.semantics import RULES, local_head_steps

from canonical_oracle import canonicalize, free_vars, unfold_once


def _unwrap(t):
    while isinstance(t, LRec):
        t = unfold_once(t)
    return t


def build_efsm(t, self_role):
    return build(t, self_role)[0]


def build(t, self_role):
    """(machine, types): the machine of `t`, and per state, in state order,
    the first structural node met for it, unfolded from a binder as an
    object."""
    validate(t)
    if free_vars(t):
        raise ValueError("EFSM construction requires a closed local type")

    ids = {}
    order = []
    # Back edges lead to the recursion binder object itself, so a state met
    # again is found by identity before it is unfolded and canonicalised.
    by_object = {}

    def state_id(closed):
        hit = by_object.get(id(closed))
        if hit is not None:
            return hit[1]
        key = canonicalize(_unwrap(closed))
        if key not in ids:
            ids[key] = len(order) + 1
            order.append(closed)
        by_object[id(closed)] = (closed, ids[key])
        return ids[key]

    transitions = []
    states = []
    types = []
    state_id(t)
    visited = 0
    while visited < len(order):
        closed = order[visited]
        visited += 1
        node = _unwrap(closed)
        actions = local_head_steps(node, self_role, RULES)
        sid = visited
        states.append(EfsmState(sid, _kind_of(actions)))
        types.append(node)
        for action, cont in actions:
            transitions.append(EfsmTransition(sid, state_id(cont), action))

    return Efsm(self_role, tuple(states), tuple(transitions)), tuple(types)


def efsm_ir(e):
    payload = {
        "role": e.role.name,
        "initial": e.initial,
        "states": [{"id": st.id, "kind": st.kind} for st in e.states],
        "transitions": [_transition_ir(tr, e.role) for tr in
                        sorted(e.transitions, key=lambda t: (t.source, t.action.sort_key()))],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _transition_ir(tr, me):
    act = tr.action
    if me in (act.sender, act.receiver):
        peer = act.receiver if act.sender == me else act.sender
    else:
        peer = act.receiver
    out = {
        "from": tr.source,
        "to": tr.target,
        "peer": peer.name,
        "dir": act.direction,
        "label": act.msg.name,
        "payloads": list(act.msg.payload_sorts),
    }
    if act.via is not None:
        out["via"] = act.via.name
    if me not in (act.sender, act.receiver):
        out["from_role"] = act.sender.name
    return out
