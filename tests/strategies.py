"""Hypothesis generators for protocol types.

Generation is biased towards single-branch communications so that a useful
share of drawn types is projectable; depths stay small because the properties
under test run explorations per example.
"""

import hypothesis.strategies as st

from routedmpst.core import (
    GComm, GEnd, GRec, GVar, LBranch, LEnd, LRec, LRoutedBranch,
    LRoutedSelect, LSelect, LVar, LocalType, MsgLabel, Role, _with_branches,
)

ROLE_POOL = tuple(Role(n) for n in ("A", "B", "C", "D"))
LABEL_POOL = tuple(MsgLabel(f"m{i}") for i in range(1, 5))


@st.composite
def distinct_roles(draw, n, pool=ROLE_POOL):
    return tuple(draw(st.permutations(pool))[:n])


@st.composite
def global_types(draw, depth=3, roles=ROLE_POOL[:3], bound=frozenset(),
                 free_vars=(), binders=1):
    """Canonical-grammar global types; closed unless free_vars are supplied.
    `binders` weighs a recursion binder against five communications."""
    options = ["end"]
    usable = tuple(bound) + tuple(free_vars)
    if usable:
        options.append("var")
    if depth > 0:
        options += ["comm"] * 5 + ["rec"] * binders
    kind = draw(st.sampled_from(options))
    if kind == "end":
        return GEnd()
    if kind == "var":
        return GVar(draw(st.sampled_from(sorted(usable))))
    if kind == "rec":
        var = f"r{len(bound)}"
        body = draw(_global_comm(depth - 1, roles, bound | {var}, free_vars, binders))
        return GRec(var, body)
    return draw(_global_comm(depth - 1, roles, bound, free_vars, binders))


@st.composite
def _global_comm(draw, depth, roles, bound, free_vars, binders=1):
    p, q = draw(distinct_roles(2, roles))
    width = draw(st.sampled_from((1, 1, 1, 2)))
    labels = draw(st.permutations(LABEL_POOL))[:width]
    branches = tuple(
        (lbl, draw(global_types(depth=depth, roles=roles, bound=bound,
                                free_vars=free_vars, binders=binders)))
        for lbl in labels)
    return GComm(p, q, branches)


@st.composite
def local_types(draw, self_role, depth=3, roles=ROLE_POOL[:3], bound=frozenset(),
                binders=1):
    options = ["end"]
    if bound:
        options.append("var")
    if depth > 0:
        options += ["comm"] * 5 + ["rec"] * binders
    kind = draw(st.sampled_from(options))
    if kind == "end":
        return LEnd()
    if kind == "var":
        return LVar(draw(st.sampled_from(sorted(bound))))
    if kind == "rec":
        var = f"r{len(bound)}"
        body = draw(_local_comm(self_role, depth - 1, roles, bound | {var}, binders))
        return LRec(var, body)
    return draw(_local_comm(self_role, depth - 1, roles, bound, binders))


@st.composite
def _local_comm(draw, self_role, depth, roles, bound, binders=1):
    others = tuple(r for r in roles if r != self_role)
    kind = draw(st.sampled_from(("select", "branch", "rselect", "rbranch")))
    width = draw(st.sampled_from((1, 1, 2)))
    labels = draw(st.permutations(LABEL_POOL))[:width]
    branches = tuple(
        (lbl, draw(local_types(self_role, depth=depth, roles=roles, bound=bound,
                               binders=binders)))
        for lbl in labels)
    if kind in ("rselect", "rbranch") and len(others) >= 2:
        peer, via = draw(distinct_roles(2, others))
        if kind == "rselect":
            return LRoutedSelect(peer, via, branches)
        return LRoutedBranch(peer, via, branches)
    peer = draw(st.sampled_from(others))
    if kind in ("select", "rselect"):
        return LSelect(peer, branches)
    return LBranch(peer, branches)


@st.composite
def mergeable_pairs(draw, self_role, depth=3, roles=ROLE_POOL[:3]):
    """Pairs of local types on which the merge operator is defined."""
    kind = draw(st.sampled_from(("same", "same", "branch", "rbranch")))
    if depth == 0:
        return LEnd(), LEnd()
    if kind == "same":
        t = draw(local_types(self_role, depth=depth, roles=roles))
        return t, t
    others = tuple(r for r in roles if r != self_role)
    peer = draw(st.sampled_from(others))
    via = None
    if kind == "rbranch":
        candidates = tuple(r for r in others if r != peer)
        if candidates:
            via = draw(st.sampled_from(candidates))
    labels = draw(st.permutations(LABEL_POOL))
    n_shared = draw(st.sampled_from((0, 1)))
    n_left = draw(st.sampled_from((0, 1)))
    n_right = 1 if n_shared + n_left == 0 else draw(st.sampled_from((0, 1)))
    left, right = [], []
    for lbl in labels[:n_shared]:
        l_cont, r_cont = draw(mergeable_pairs(self_role, depth=depth - 1, roles=roles))
        left.append((lbl, l_cont))
        right.append((lbl, r_cont))
    for lbl in labels[n_shared:n_shared + n_left]:
        left.append((lbl, draw(local_types(self_role, depth=depth - 1, roles=roles))))
    for lbl in labels[n_shared + n_left:n_shared + n_left + n_right]:
        right.append((lbl, draw(local_types(self_role, depth=depth - 1, roles=roles))))
    if not left or not right:
        return LEnd(), LEnd()
    if via is None:
        return LBranch(peer, tuple(left)), LBranch(peer, tuple(right))
    return (LRoutedBranch(peer, via, tuple(left)),
            LRoutedBranch(peer, via, tuple(right)))


@st.composite
def with_unused_binders(draw, t):
    """`t` with up to two nested unused binders wrapped around each node
    but a variable (which would make the binders non-contractive)."""
    if isinstance(t, (GVar, LVar)):
        return t
    if isinstance(t, (GRec, LRec)):
        t = type(t)(t.var, draw(with_unused_binders(t.body)))
    elif getattr(t, "branches", None) is not None:
        t = _with_branches(t, tuple((lbl, draw(with_unused_binders(c)))
                                    for lbl, c in t.branches))
    rec = LRec if isinstance(t, LocalType) else GRec
    for i in range(draw(st.integers(0, 2))):
        t = rec(f"unused{i}", t)
    return t


@st.composite
def binder_nests(draw, depth=5, local=False, bound=()):
    """A recursion binder over a two-label choice at each level, each branch
    a nest one level shallower or a variable of any binder above: bodies that
    name an outer binder past inner ones, which the grammars above rarely
    draw."""
    var = f"r{len(bound)}"
    bound += (var,)
    rec, ref = (LRec, LVar) if local else (GRec, GVar)

    def branch():
        if depth > 1 and draw(st.booleans()):
            return draw(binder_nests(depth - 1, local, bound))
        return ref(draw(st.sampled_from(bound)))
    a, b = LABEL_POOL[:2]
    branches = ((a, branch()), (b, branch()))
    return rec(var, LSelect(ROLE_POOL[0], branches) if local
               else GComm(ROLE_POOL[0], ROLE_POOL[1], branches))
