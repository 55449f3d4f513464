"""A reference `build_efsm`: the earlier version, which keys each state by
the canonical form of its whole subterm (quadratic on long sequences).  Kept
as an oracle for the one in `routedmpst.efsm`, which keys states by
`core.CanonicalIds`."""

from routedmpst.core import LRec, canonicalize, is_closed, unfold_once, validate
from routedmpst.efsm import Efsm, EfsmState, EfsmTransition, _kind_of
from routedmpst.semantics import local_head_steps


def _unwrap(t):
    while isinstance(t, LRec):
        t = unfold_once(t)
    return t


def build_efsm(t, self_role):
    validate(t)
    if not is_closed(t):
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
    state_id(t)
    visited = 0
    while visited < len(order):
        closed = order[visited]
        visited += 1
        node = _unwrap(closed)
        actions = local_head_steps(node, self_role)
        sid = visited
        states.append(EfsmState(sid, _kind_of(actions), node))
        for action, cont in actions:
            transitions.append(EfsmTransition(sid, state_id(cont), action))

    return Efsm(self_role, tuple(states), tuple(transitions))
