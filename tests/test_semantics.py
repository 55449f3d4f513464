from routedmpst import core
from routedmpst.core import (
    GComm, GEnd, GRoutedTransit, GTransit, GlobalType, LEnd, LRouter,
    LRouterTransit, LRoutedBranch, LRoutedSelect, LSelect, LocalType, Role,
    direct_recv, direct_send, routed_recv, routed_send,
)
from routedmpst.encoding import encode_global
from routedmpst.projection import project
from routedmpst.semantics import (
    _NODE_RULES, RULES, Configuration, config_steps, global_steps, local_steps,
    project_configuration,
)

from corpus import (
    A, B, G1_ROUTER_ORDER, G2_ROUTER_ORDER, G_EX, G_EX_ROUTED, G_TRAVEL, M1,
    M2, P, Q, R, S, SR, SUGGEST, load, one,
)


# ---------------------------------------------------------------------------
# Global LTS
# ---------------------------------------------------------------------------


def test_global_steps_end_empty():
    assert global_steps(GEnd()) == []


def test_global_steps_plain_example_allows_early_second_sender():
    labels = {label for label, _ in global_steps(G_EX)}
    assert direct_send(P, Q, M1) in labels
    assert direct_send(SR, Q, M2) in labels  # via the causal-independence rule


def test_global_steps_encoded_example_successor_sets():
    # Hand-derived one-step successors at each state of the reference
    # four-action encoded trace.
    h0 = G_EX_ROUTED
    steps0 = dict(global_steps(h0))
    assert set(steps0) == {routed_send(P, Q, SR, M1), direct_send(SR, Q, M2)}
    assert steps0[routed_send(P, Q, SR, M1)] == GRoutedTransit(
        P, Q, SR, M1, one(M1, GComm(SR, Q, one(M2, GEnd()))))

    h1 = steps0[direct_send(SR, Q, M2)]
    steps1 = dict(global_steps(h1))
    assert set(steps1) == {routed_send(P, Q, SR, M1)}

    h2 = steps1[routed_send(P, Q, SR, M1)]
    steps2 = dict(global_steps(h2))
    assert set(steps2) == {routed_recv(P, Q, SR, M1)}

    h3 = steps2[routed_recv(P, Q, SR, M1)]
    assert h3 == GTransit(SR, Q, M2, one(M2, GEnd()))
    steps3 = dict(global_steps(h3))
    assert set(steps3) == {direct_recv(SR, Q, M2)}
    assert steps3[direct_recv(SR, Q, M2)] == GEnd()


def test_global_steps_deterministic_order():
    assert global_steps(G_EX_ROUTED) == global_steps(G_EX_ROUTED)
    labels = [label for label, _ in global_steps(G_EX_ROUTED)]
    assert labels == sorted(labels, key=lambda l: l.sort_key())


def test_global_steps_unfolds_recursion():
    pingpong = load("PingPong")
    labels = {label for label, _ in global_steps(pingpong)}
    assert labels == {direct_send(Role("C"), Role("S"),
                      next(iter(dict(global_steps(pingpong)))).msg)}


# ---------------------------------------------------------------------------
# Local LTS
# ---------------------------------------------------------------------------


def test_local_steps_end_empty():
    assert local_steps(LEnd(), A) == []


def test_local_steps_router_forwarding():
    router = LRouter(P, Q, one(M1, LEnd()))
    steps = dict(local_steps(router, SR))
    assert set(steps) == {routed_send(P, Q, SR, M1)}
    assert steps[routed_send(P, Q, SR, M1)] == LRouterTransit(P, Q, M1, one(M1, LEnd()))
    transit = steps[routed_send(P, Q, SR, M1)]
    steps2 = dict(local_steps(transit, SR))
    assert set(steps2) == {routed_recv(P, Q, SR, M1)}


def test_router_order_examples_block_premature_routing():
    # First example: the nested routed interaction is *sent by* the direct
    # peer, so nothing routed may happen before the direct send.
    t1 = project(G1_ROUTER_ORDER, SR)
    assert t1 == LSelect(R, one(M1, LRouter(R, Q, one(M2, LEnd()))))
    labels1 = {label for label, _ in local_steps(t1, SR)}
    assert labels1 == {direct_send(SR, R, M1)}

    # Second example: the routed *send* by p is causally unrelated and may
    # commute in front (the global rules agree); the delivery to the direct
    # peer r stays blocked.
    t2 = project(G2_ROUTER_ORDER, SR)
    assert t2 == LSelect(R, one(M1, LRouter(P, R, one(M2, LEnd()))))
    labels2 = {label for label, _ in local_steps(t2, SR)}
    assert labels2 == {direct_send(SR, R, M1), routed_send(P, R, SR, M2)}
    assert routed_recv(P, R, SR, M2) not in labels2

    global1 = {label for label, _ in global_steps(G1_ROUTER_ORDER)}
    assert routed_send(R, Q, SR, M2) not in global1
    global2 = {label for label, _ in global_steps(G2_ROUTER_ORDER)}
    assert routed_send(P, R, SR, M2) in global2


def test_local_steps_routed_endpoints():
    sel = LRoutedSelect(Q, SR, one(M1, LEnd()))
    assert dict(local_steps(sel, P)) == {routed_send(P, Q, SR, M1): LEnd()}
    bra = LRoutedBranch(P, SR, one(M1, LEnd()))
    assert dict(local_steps(bra, Q)) == {routed_recv(P, Q, SR, M1): LEnd()}


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def test_initial_travel_agency_configurations():
    plain = project_configuration(G_TRAVEL)
    labels = {label for label, _ in config_steps(plain)}
    assert labels == {direct_send(B, A, SUGGEST)}

    routed = project_configuration(encode_global(G_TRAVEL, S))
    labels_r = {label for label, _ in config_steps(routed)}
    assert labels_r == {routed_send(B, A, S, SUGGEST)}


def test_empty_configuration_has_no_steps():
    assert config_steps(Configuration.make({})) == []


def test_routed_send_moves_router_and_fills_buffer():
    conf = project_configuration(G_EX_ROUTED)
    steps = dict(config_steps(conf))
    sent = steps[routed_send(P, Q, SR, M1)]
    assert dict(sent.buffers)[(P, Q)] == (M1,)
    before, after = dict(conf.locals), dict(sent.locals)
    assert isinstance(after[SR], LRouterTransit)
    # The sender advanced as well; the receiver did not.
    assert after[P] == LEnd()
    assert after[Q] == before[Q]


def test_config_direct_send_only_moves_sender():
    conf = project_configuration(G_EX_ROUTED)
    steps = dict(config_steps(conf))
    sent = steps[direct_send(SR, Q, M2)]
    assert dict(sent.buffers)[(SR, Q)] == (M2,)
    before, after = dict(conf.locals), dict(sent.locals)
    assert after[P] == before[P]
    assert after[Q] == before[Q]


def test_project_configuration_no_transit_means_empty_buffers():
    conf = project_configuration(G_TRAVEL)
    assert all(content == () for _, content in conf.buffers)


def test_project_configuration_routed_transit_buffer():
    g = GRoutedTransit(P, Q, SR, M1, one(M1, GEnd()))
    conf = project_configuration(g)
    assert dict(conf.buffers)[(P, Q)] == (M1,)
    assert dict(conf.locals) == {SR: LRouterTransit(P, Q, M1, one(M1, LEnd())),
                                 Q: LRoutedBranch(P, SR, one(M1, LEnd())),
                                 P: LEnd()}


def test_project_configuration_matches_stepped_mid_trace_states():
    # Walk the four-action encoded trace and compare the configuration LTS
    # against buffer projection of the corresponding global states.
    conf = project_configuration(G_EX_ROUTED)
    state = G_EX_ROUTED
    trace = [direct_send(SR, Q, M2), routed_send(P, Q, SR, M1),
             routed_recv(P, Q, SR, M1), direct_recv(SR, Q, M2)]
    roles = tuple(sorted({P, Q, SR}))
    for label in trace:
        state = dict(global_steps(state))[label]
        conf = dict(config_steps(conf))[label]
        # Roles that dropped out of `state` project to end, with empty buffers.
        projected = Configuration.make({r: project(state, r) for r in roles},
                                       dict(project_configuration(state).buffers))
        assert conf.canonical() == projected.canonical()
    # terminal: every role at end, every buffer empty
    assert conf == Configuration.make(dict.fromkeys(roles, LEnd()))


# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------


def test_every_node_class_has_rules_and_every_rule_one_node_class():
    node_classes = {cls for cls in vars(core).values()
                    if isinstance(cls, type) and issubclass(cls, (GlobalType, LocalType))
                    and cls not in (GlobalType, LocalType)}
    assert set(_NODE_RULES) == node_classes
    used = [name for names in _NODE_RULES.values() for name in names]
    assert sorted(used) == sorted(RULES)
    assert set(RULES) == {f"Gr{i}" for i in range(1, 10)} | {f"Lr{i}" for i in range(1, 12)}
