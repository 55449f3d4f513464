"""`core.CanonicalIds` against the reference `canonical_oracle.canonicalize`:
within one interner, two closed types get the same id exactly when their
canonical forms are equal, and `form` rebuilds that form from the id.  The
open-type equality of `projection.merge` against the same oracle.  Its
cost: one walk per node, however many of its subterms are keyed.  And
`unfold_id`, which substitutes over keys, against the unfolding of the
binder's canonical form walked back into the same interner."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from routedmpst.analysis import _explore, check_trace_equivalence
from routedmpst.core import (
    CanonicalIds, GRec, LRec, LSelect, LVar, MsgLabel, Role, _with_branches, free_vars,
    participants,
)
from routedmpst.projection import MergeFailure, _canonically_equal, project
from routedmpst.scribble import elaborate, parse_module
from routedmpst.semantics import Tables, global_steps, local_steps

import canonical_oracle
from canonical_oracle import unfold_once
from corpus import CORPUS_ROUTERS, A, B, C, load
from strategies import (
    ROLE_POOL, binder_nests, global_types, local_types, with_unused_binders,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _subterms(t):
    yield t
    if isinstance(t, (GRec, LRec)):
        yield from _subterms(t.body)
    for _, c in getattr(t, "branches", None) or ():
        yield from _subterms(c)


def _pool(types, steps):
    """The closed subterms of each type, its unfolding and its one-step
    successors."""
    pool = []
    for t in types:
        related = [t] + [succ for _, succ in steps(t)]
        if isinstance(t, (GRec, LRec)):
            related.append(unfold_once(t))
        pool += [u for r in related for u in _subterms(r) if not free_vars(u)]
    return pool


def _agrees(pool, order):
    """Key the pool in `order` with one interner; ids and canonical forms
    must partition it the same way, and each id's form must be the oracle's."""
    ids = CanonicalIds()
    by_id, by_form = {}, {}
    for i in order:
        form, sid = canonical_oracle.canonicalize(pool[i]), ids.of(pool[i])
        assert ids.form(sid) == form
        assert by_id.setdefault(sid, form) == form
        assert by_form.setdefault(form, sid) == sid


def _mirrored(t):
    """`t` with the branches of every node in reverse order."""
    if isinstance(t, (GRec, LRec)):
        return type(t)(t.var, _mirrored(t.body))
    if getattr(t, "branches", None) is None:
        return t
    return _with_branches(t, tuple((lbl, _mirrored(c)) for lbl, c in reversed(t.branches)))


@st.composite
def _closed_pools(draw, types, steps):
    originals = draw(st.lists(types, min_size=1, max_size=3))
    variants = [draw(with_unused_binders(t)) for t in originals]
    variants += [_mirrored(t) for t in variants]
    pool = _pool(originals + variants, steps)
    return pool, draw(st.permutations(range(len(pool))))


@PROPERTY
@given(_closed_pools(global_types(depth=4, roles=ROLE_POOL), global_steps))
def test_agrees_with_canonicalize_on_global_types(drawn):
    _agrees(*drawn)


@PROPERTY
@given(st.sampled_from(ROLE_POOL).flatmap(lambda role: _closed_pools(
    local_types(role, depth=4, roles=ROLE_POOL), lambda t: local_steps(t, role))))
def test_agrees_with_canonicalize_on_local_types(drawn):
    _agrees(*drawn)


# Free names of open projections, some of them already canonical binder
# names, which a canonical form must not confuse with its own binders.
OPEN_NAMES = ("x", "y", "%0", "%1", "%%0")


@st.composite
def _projected_pools(draw):
    """The subterms, open and closed, of every role's projection of an open
    global type and of a variant with unused binders and mirrored branches."""
    g = draw(global_types(depth=4, roles=ROLE_POOL, free_vars=OPEN_NAMES))
    pool = []
    for t in (g, _mirrored(draw(with_unused_binders(g)))):
        for role in ROLE_POOL:
            try:
                pool += _subterms(project(t, role))
            except MergeFailure:
                pass
    return pool


@PROPERTY
@given(_projected_pools())
def test_merge_equality_agrees_with_canonical_forms_on_open_types(pool):
    """`merge`'s last-resort test against the oracle's canonical forms,
    whose free variables keep their names, on every pair of the pool."""
    forms = [canonical_oracle.canonicalize(t) for t in pool]
    for a, form_a in zip(pool, forms):
        for b, form_b in zip(pool, forms):
            assert _canonically_equal(a, b) == (form_a == form_b)


def _sel(peer, *branches):
    return LSelect(peer, tuple((MsgLabel(name), cont) for name, cont in branches))


def test_a_shared_open_object_is_keyed_under_each_binder():
    """One `LVar("x")` object sits under binders of different levels, in one
    type and across types keyed by one interner; a key memoised by identity
    would name the wrong binder.  Each type also gets a copy that shares no
    object, which must get the same id."""
    def types(x):
        return [
            LRec("x", _sel(A, ("a", LRec("y", _sel(B, ("b", x()), ("c", LVar("y"))))),
                           ("d", x()))),
            LRec("x", _sel(C, ("a", x()))),  # x at level 0
            LRec("y", _sel(C, ("b", LRec("x", _sel(B, ("e", x()), ("f", LVar("y"))))))),
            LRec("y", _sel(C, ("b", LRec("x", _sel(B, ("e", LVar("y")),
                                                        ("f", LVar("y"))))))),
        ]
    shared_x = LVar("x")
    shared, fresh = types(lambda: shared_x), types(lambda: LVar("x"))
    pool = shared + fresh
    for order in (range(len(pool)), reversed(range(len(pool)))):
        _agrees(pool, list(order))
    ids = CanonicalIds()
    assert [ids.of(t) for t in shared] == [ids.of(t) for t in fresh]


def test_a_closed_binder_and_an_open_one_get_distinct_keys():
    """The inner binder of the first type is open (its body names x), that
    of the second closed; their bodies are alike but for that name."""
    def inner(body_b):
        return LRec("y", _sel(B, ("b", body_b), ("c", LVar("y"))))
    pool = [LRec("x", _sel(A, ("a", inner(LVar("x"))), ("d", LVar("x")))),
            LRec("x", _sel(A, ("a", inner(LVar("y"))), ("d", LVar("x"))))]
    _agrees(pool, [0, 1])
    _agrees(pool, [1, 0])


def test_open_types_have_no_id():
    ids = CanonicalIds()
    body = _sel(A, ("a", LVar("x")))
    assert ids.free_vars(body) == frozenset({"x"})
    with pytest.raises(ValueError):
        ids.of(body)
    assert ids.of(LRec("x", body)) == CanonicalIds().of(LRec("x", body))


def test_each_node_is_walked_once_when_every_suffix_is_keyed(monkeypatch):
    """Every suffix state of the unfolding of a recursive 300-message
    sequence, keyed one by one: each node is walked once, and each node
    under the binder is keyed once relative to it."""
    body = LVar("x")
    for i in range(300):
        body = _sel(B, (f"m{i}", body))
    t = LRec("x", body)
    unfolded = unfold_once(t)
    calls = {"_walk": 0, "_open": 0}
    for name in calls:
        original = getattr(CanonicalIds, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(CanonicalIds, name, counted)
    suffixes, state = [], unfolded
    while isinstance(state, LSelect):
        suffixes.append(state)
        state = state.branches[0][1]
    assert state is t
    ids = CanonicalIds()
    # Deepest first: the counting wrapper doubles the stack frames per level.
    keys = [ids.of(s) for s in reversed(suffixes)]
    assert len(set(keys)) == 300 and ids.of(t) not in keys
    # t, its body (300 messages and the variable) and the unfolded copy.
    assert calls == {"_walk": 1 + 301 + 300, "_open": 301}


# ---------------------------------------------------------------------------
# unfold_id against the unfolding of the binder's canonical form
# ---------------------------------------------------------------------------


def _unfoldings_agree(ids, limit=None):
    """Every closed binder id of `ids`, including those its unfoldings make,
    up to `limit` of them: `unfold_id` must give the id of the binder's
    canonical form unfolded as a type and walked back.  Returns the number
    of binders checked."""
    checked = sid = 0
    while sid < len(ids.keys) and (limit is None or checked < limit):
        if isinstance(ids.keys[sid], (GRec, LRec)) and not ids.free_levels(sid):
            assert ids.unfold_id(sid) == ids.of(unfold_once(ids.form(sid))), ids.form(sid)
            checked += 1
        sid += 1
    return checked


def _searched(g, routers, depth=4, cap=300):
    """A `Tables` that has stepped `g` and its encodings through each of
    `routers`: their global LTSs up to `cap` states, and the trace
    equivalence of `g`, which steps each role's projection, to `depth`."""
    tables = Tables()
    start = tables.intern(g)
    check_trace_equivalence(g, depth, tables=tables)
    for s in routers:
        for sid in (start, tables.encode_id(start, s)):
            _explore("states", (sid,), tables.edges, lambda _, edges: edges.items(),
                     None, cap)
    return tables


def _ring(n):
    roles = [f"R{i}" for i in range(n)]
    hops = [(roles[i], roles[(i + 1) % n]) for i in range(n)]
    go = " ".join(f"Go() from {a} to {b};" for a, b in hops)
    stop = " ".join(f"Stop() from {a} to {b};" for a, b in hops)
    return "Ring", roles, (f"choice at R0 {{ {go} do Ring({', '.join(roles)}); }} "
                           f"or {{ {stop} }}")


def _fan(n):
    clients = [f"C{i}" for i in range(1, n + 1)]
    roles = ["S"] + clients
    again = " ".join([f"Req() from S to {c};" for c in clients]
                     + [f"Resp() from {c} to S;" for c in clients])
    stop = " ".join(f"Stop() from S to {c};" for c in clients)
    return "Fan", roles, (f"choice at S {{ {again} do Fan({', '.join(roles)}); }} "
                          f"or {{ {stop} }}")


def _wide(k):
    blocks = [f"l{i}() from S to A; l{i}() from A to B; do Wide(A, B, S);"
              for i in range(1, k)]
    blocks.append("done() from S to A; done() from A to B;")
    return "Wide", ["A", "B", "S"], "choice at S { " + " } or { ".join(blocks) + " }"


def _generated(name, roles, body):
    params = ", ".join(f"role {r}" for r in roles)
    return elaborate(parse_module(f"global protocol {name}({params}) {{ {body} }}"), name)


@pytest.mark.parametrize("name", [*sorted(CORPUS_ROUTERS), "OuterLoop"])
def test_unfold_id_agrees_on_the_corpus_and_its_encodings(name):
    """The binders a search of the protocol, its projections and its
    encoding through each participant meets.  OuterLoop's inner loop runs
    on into its outer one, so an unfolding closes a binder below its root."""
    g = load(name, "P" if name == "OuterLoop" else None)
    assert _unfoldings_agree(_searched(g, sorted(participants(g)))) > 1


@pytest.mark.parametrize("g", [_generated(*_ring(5)), _generated(*_fan(3)),
                               _generated(*_wide(3))], ids=["Ring-5", "Fan-3", "Wide-3"])
def test_unfold_id_agrees_on_generated_families(g):
    router = Role("R0") if Role("R0") in participants(g) else Role("S")
    assert _unfoldings_agree(_searched(g, [router])) > 1


def test_unfold_id_closes_a_binder_below_the_root():
    """`rec z` names x and z only, so the unfolding of x closes it two
    binders down: its own binder renumbers from 0, and `rec y`, open on,
    drops one level."""
    z = LRec("z", _sel(C, ("c", LVar("x")), ("d", LVar("z"))))
    w = LRec("w", _sel(A, ("f", LVar("y")), ("g", LVar("w")), ("h", LVar("x"))))
    t = LRec("x", _sel(A, ("a", LRec("y", _sel(B, ("b", z), ("e", w))))))
    ids = CanonicalIds()
    ids.of(t)
    assert _unfoldings_agree(ids) == 4


_NESTED = st.one_of(
    global_types(depth=5, roles=ROLE_POOL, binders=3),
    st.sampled_from(ROLE_POOL).flatmap(
        lambda r: local_types(r, depth=5, roles=ROLE_POOL, binders=3)),
    st.booleans().flatmap(lambda local: binder_nests(depth=5, local=local)))


@PROPERTY
@given(st.lists(_NESTED, min_size=1, max_size=4))
def test_unfold_id_agrees_on_nested_binders(types):
    """Each closed binder of drawn types keyed by one interner, and those
    their unfoldings make."""
    ids = CanonicalIds()
    for t in types:
        ids.of(t)
    _unfoldings_agree(ids, limit=50)
