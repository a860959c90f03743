import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim.actions import StartTimer, Unicast
from qgrpsim.dcf import DcfParams
from qgrpsim.geometry import GeoContext, Position, distance, is_forward_progress
from qgrpsim.link_estimation import NeighborRecord
from qgrpsim.qgrp import (
    AdmissionNotify,
    Data,
    Hello,
    MetricWeights,
    MissingEstimateError,
    NodeEnergy,
    QgrpNode,
    Rrep,
    RouteEntry,
    Rreq,
    is_fresher,
)
from qgrpsim.simulator import build_link_cost

IDLE_FACTOR = 160 / 191  # 1 - backoff overhead at p_c = 0
B_NO = 2e6


class StubEnv:
    """Protocol environment with no engine behind it."""

    def __init__(self, positions, sink_id, policy="retry"):
        self.sink_id = sink_id
        self.positions = positions
        self.b_no = B_NO
        self.weights = MetricWeights()
        self.initial_energy = 40.0
        self.pkt_bits = {"hello": 256, "rreq": 320, "rrep": 320, "notify": 192, "data_header": 160}
        self.hello_interval = 1.0
        self.hello_jitter = 0.1
        self.hello_expiry = 3.0
        self.rrep_wait = 0.5
        self.max_retries = 3
        self.retry_backoff = 0.5
        self.buffer_capacity = 4
        self.source_policy = policy
        self.reservation_ttl = 10.0
        self.aodv_rreq_bits = 320
        self.aodv_rrep_bits = 320
        self.aodv_route_timeout = 3.0
        self.aodv_ttl = 30
        self.rng = random.Random(0)
        self.rows = []
        self.idle = {}

    def log(self, now, node_id, kind, *detail):
        self.rows.append((now, node_id, kind) + detail)

    def idle_fraction(self, node_id, now):
        return self.idle.get(node_id, 1.0)

    def link_cost(self, u, v):
        """A collision-free link under the default DCF and radio parameters."""
        dist = distance(self.positions[u], self.positions[v])
        return build_link_cost(0.0, dist, DcfParams(), 50e-9, 100e-12)

    def residual(self, node_id):
        return 40.0

    def alive(self, node_id):
        return True

    def rows_of(self, kind):
        return [r for r in self.rows if r[2] == kind]


def hello_into(node, peer, pos, now, idle=1.0, energy=40.0, seq=1):
    node.on_hello(Hello(peer, pos, energy, idle, seq), now)


def expected_estimate(peer_idle, local_idle=1.0):
    """Hand recomputation of the zero-collision estimate pipeline."""
    return B_NO * local_idle * peer_idle * IDLE_FACTOR


def pin_estimates(node, now, estimates, energies=None):
    """Inject link estimates directly, bypassing the hello pipeline."""
    node.estimates = dict(estimates)
    node._estimates_at = now
    for peer in estimates:
        energy = (energies or {}).get(peer, 40.0)
        node.neighbors[peer] = NeighborRecord(energy, 1.0, now)


# ----- forwarder set -----

def test_forwarder_set_empty_without_neighbors():
    env = StubEnv({0: Position(0, 0), 9: Position(500, 0)}, sink_id=9)
    node = QgrpNode(0, env)
    assert node.forwarder_set(1e5, 1.0) == set()


def test_forwarder_set_angle_filter_drops_backward_neighbor():
    env = StubEnv({0: Position(0, 0), 1: Position(-100, 0), 9: Position(500, 0)}, sink_id=9)
    node = QgrpNode(0, env)
    hello_into(node, 1, env.positions[1], 0.9)
    assert node.forwarder_set(1e3, 1.0) == set()


def test_forwarder_set_matches_brute_force_filter():
    rng = random.Random(42)
    positions = {0: Position(0, 0), 99: Position(400, 120)}
    for peer in range(1, 25):
        positions[peer] = Position(rng.uniform(-300, 300), rng.uniform(-300, 300))
    env = StubEnv(positions, sink_id=99)
    node = QgrpNode(0, env)
    idles = {}
    for peer in range(1, 25):
        idles[peer] = rng.uniform(0.0, 1.0)
        hello_into(node, peer, positions[peer], 0.9, idle=idles[peer])
    required = 0.6e6
    got = node.forwarder_set(required, 1.0)

    expected = set()
    for peer in range(1, 25):
        ctx = GeoContext(positions[0], positions[peer], positions[99])
        if is_forward_progress(ctx) and expected_estimate(idles[peer]) >= required:
            expected.add(peer)
    assert got == expected


@settings(max_examples=60)
@given(st.floats(min_value=1e3, max_value=2e6), st.floats(min_value=1e3, max_value=2e6),
       st.integers(min_value=0, max_value=2**31))
def test_forwarder_set_monotone_in_requirement(b1, b2, seed):
    lo, hi = sorted((b1, b2))
    rng = random.Random(seed)
    positions = {0: Position(0, 0), 50: Position(350, 0)}
    for peer in range(1, 12):
        positions[peer] = Position(rng.uniform(-250, 250), rng.uniform(-250, 250))
    env = StubEnv(positions, sink_id=50)
    node = QgrpNode(0, env)
    for peer in range(1, 12):
        hello_into(node, peer, positions[peer], 0.5, idle=rng.uniform(0.0, 1.0))
    assert node.forwarder_set(hi, 1.0) <= node.forwarder_set(lo, 1.0)


# ----- composite metric -----

def test_link_metric_hand_example():
    theta = 0.5
    cand = Position(150 * math.cos(theta), 150 * math.sin(theta))
    # Sink on the +x axis so the deviation angle is exactly theta; placed so
    # the candidate sits 100 m from it.
    dx = math.sqrt(100.0**2 - cand.y**2)
    sink = Position(cand.x + dx, 0.0)
    env = StubEnv({0: Position(0, 0), 1: cand, 9: sink}, sink_id=9)
    node = QgrpNode(0, env)
    pin_estimates(node, 1.0, {1: B_NO})  # bandwidth ratio 1, energy ratio 1
    assert node.link_metric(1, 1.0) == pytest.approx(1.0 / (100.0 * 0.5), rel=1e-9)


def test_link_metric_guards_collinear_candidate():
    env = StubEnv({0: Position(0, 0), 1: Position(100, 0), 9: Position(200, 0)}, sink_id=9)
    node = QgrpNode(0, env)
    pin_estimates(node, 1.0, {1: B_NO})
    assert node.link_metric(1, 1.0) == pytest.approx(1.0 / (100.0 * 0.01), rel=1e-9)


def test_link_metric_halves_when_distance_doubles():
    theta = 0.3
    env = StubEnv(
        {
            0: Position(0, 0),
            1: Position(-100 * math.cos(theta), 100 * math.sin(theta)),
            2: Position(-200 * math.cos(theta), 200 * math.sin(theta)),
            9: Position(0, 0),
        },
        sink_id=9,
    )
    # Sink at self is degenerate; move self away along +x instead.
    env.positions[0] = Position(300, 0)
    env.positions[1] = Position(300 - 100 * math.cos(theta), 100 * math.sin(theta))
    env.positions[2] = Position(300 - 200 * math.cos(theta), 200 * math.sin(theta))
    env.positions[9] = Position(300 - 300 * math.cos(theta), 300 * math.sin(theta))
    node = QgrpNode(0, env)
    pin_estimates(node, 1.0, {1: B_NO, 2: B_NO})
    m1 = node.link_metric(1, 1.0)
    m2 = node.link_metric(2, 1.0)
    r1 = 200.0  # candidate 1 sits 200 m from the sink along the ray
    r2 = 100.0
    assert m1 / m2 == pytest.approx(r2 / r1, rel=1e-9)


def test_link_metric_requires_fresh_data():
    env = StubEnv({0: Position(0, 0), 1: Position(50, 0), 9: Position(500, 0)}, sink_id=9)
    node = QgrpNode(0, env)
    with pytest.raises(MissingEstimateError):
        node.link_metric(1, 1.0)


# ----- next hop selection -----

def test_select_next_hop_empty_returns_none():
    env = StubEnv({0: Position(0, 0), 9: Position(500, 0)}, sink_id=9)
    assert QgrpNode(0, env).select_next_hop(1e5, 1.0) is None


def test_select_next_hop_argmax():
    env = StubEnv(
        {0: Position(0, 0), 1: Position(120, 90), 2: Position(200, 0), 9: Position(500, 0)},
        sink_id=9,
    )
    node = QgrpNode(0, env)
    pin_estimates(node, 1.0, {1: B_NO, 2: B_NO})
    best = max((1, 2), key=lambda p: node.link_metric(p, 1.0))
    assert node.select_next_hop(1e5, 1.0) == best == 2


def test_select_next_hop_tie_breaks_to_lowest_id():
    env = StubEnv(
        {0: Position(0, 0), 3: Position(100, 50), 7: Position(100, -50), 9: Position(500, 0)},
        sink_id=9,
    )
    node = QgrpNode(0, env)
    pin_estimates(node, 1.0, {3: B_NO, 7: B_NO})
    assert node.link_metric(3, 1.0) == node.link_metric(7, 1.0)
    assert node.select_next_hop(1e5, 1.0) == 3


def test_select_next_hop_invariant_under_score_rescaling():
    env = StubEnv(
        {0: Position(0, 0), 1: Position(90, 60), 2: Position(150, -40), 3: Position(60, 10),
         9: Position(400, 0)},
        sink_id=9,
    )
    node = QgrpNode(0, env)
    pin_estimates(node, 1.0, {1: 0.9 * B_NO, 2: 0.8 * B_NO, 3: 0.5 * B_NO})
    baseline = node.select_next_hop(1e5, 1.0)

    original = QgrpNode.link_metric
    try:
        QgrpNode.link_metric = lambda self, c, now: 7.25 * original(self, c, now)
        assert node.select_next_hop(1e5, 1.0) == baseline
    finally:
        QgrpNode.link_metric = original


# ----- route request handling -----

def line_env(policy="retry"):
    positions = {
        0: Position(0, 0),
        1: Position(200, 0),
        2: Position(400, 0),
        3: Position(600, 0),  # sink
    }
    return StubEnv(positions, sink_id=3, policy=policy)


def test_sink_replies_with_incremented_sequence():
    env = line_env()
    sink = QgrpNode(3, env)
    pkt = Rreq(11, 0, 3, 0.5e6, 1.4e6, 0, 0, (0, 1, 2))
    out = sink.handle_rreq(pkt, 2, 4.0)
    assert sink.dest_seq == 1
    (effect,) = out
    assert isinstance(effect, Unicast) and effect.to == 2
    rrep = effect.packet
    assert rrep.dest_seq == 1
    assert rrep.path_bandwidth == 1.4e6
    assert rrep.hop_trace == (0, 1, 2, 3)
    out2 = sink.handle_rreq(Rreq(12, 0, 3, 0.5e6, 1.0e6, 0, 0, (0, 1)), 1, 5.0)
    assert out2[0].packet.dest_seq == 2


def test_intermediate_forwards_with_min_accumulation():
    env = line_env()
    node = QgrpNode(1, env)
    pin_estimates(node, 4.0, {2: 0.9e6})
    pkt = Rreq(11, 0, 3, 0.5e6, 1.5e6, 0, 0, (0,))
    (effect,) = node.handle_rreq(pkt, 0, 4.0)
    assert isinstance(effect, Unicast) and effect.to == 2
    fwd = effect.packet
    assert fwd.path_bandwidth_so_far == 0.9e6
    assert fwd.hop_trace == (0, 1)
    assert node.reservations[11].peer == 2
    (reserve_row,) = env.rows_of("reserve")
    assert reserve_row[3:] == (11, 2, 0.5e6, 0.9e6, 0.5e6)


def test_cached_route_reply_uses_stored_bandwidth():
    env = line_env()
    node = QgrpNode(1, env)
    pin_estimates(node, 4.0, {2: 1.6e6})
    node.handle_rrep(Rrep(5, 0, 3, 4, 1.1e6, (0, 1, 2, 3)), 2, 4.0)
    assert node.routes[3].path_bandwidth == 1.1e6
    pkt = Rreq(12, 0, 3, 0.5e6, 0.8e6, 0, 0, (0,))
    (effect,) = node.handle_rreq(pkt, 0, 4.0)
    rrep = effect.packet
    assert isinstance(rrep, Rrep)
    assert rrep.path_bandwidth == 0.8e6  # min(incoming 0.8, stored 1.1)
    assert rrep.dest_seq == 4
    assert rrep.hop_trace == (0, 1)
    assert env.rows_of("cache_reply")[0][3:] == (12, 0, 1.1e6)


def test_rejection_notifies_with_max_grantable():
    env = StubEnv(
        {0: Position(0, 0), 1: Position(150, 80), 2: Position(150, -80), 9: Position(600, 0)},
        sink_id=9,
    )
    node = QgrpNode(1, env)
    pin_estimates(node, 4.0, {2: 0.3e6})
    pkt = Rreq(21, 0, 9, 0.5e6, 1.2e6, 0, 0, (0,))
    (effect,) = node.handle_rreq(pkt, 0, 4.0)
    notify = effect.packet
    assert isinstance(notify, AdmissionNotify)
    assert notify.max_grantable_bandwidth == 0.3e6
    assert notify.rejecting_node == 1
    assert effect.to == 0


def test_loop_witness_drops_and_counts():
    env = line_env()
    node = QgrpNode(1, env)
    pkt = Rreq(30, 0, 3, 0.5e6, 1.0e6, 0, 0, (0, 1, 2))
    assert node.handle_rreq(pkt, 2, 4.0) == []
    assert node.loop_witness_count == 1
    assert len(env.rows_of("loop_witness")) == 1


def test_forwarding_excludes_nodes_already_in_trace():
    # Node 1's only forward-progress candidate is already in the trace, so it
    # must reject rather than create a loop.
    env = StubEnv(
        {0: Position(0, 0), 1: Position(100, 0), 2: Position(90, 40), 9: Position(600, 0)},
        sink_id=9,
    )
    node = QgrpNode(1, env)
    pin_estimates(node, 4.0, {2: 1.8e6})
    pkt = Rreq(31, 0, 9, 0.5e6, 1.0e6, 0, 0, (0, 2))
    (effect,) = node.handle_rreq(pkt, 2, 4.0)
    assert isinstance(effect.packet, AdmissionNotify)
    assert node.loop_witness_count == 0


def test_three_hop_line_bottleneck():
    env = line_env()
    nodes = {i: QgrpNode(i, env) for i in range(4)}
    links = {0: 1.5e6, 1: 0.9e6, 2: 1.2e6}
    pin_estimates(nodes[0], 2.0, {1: links[0]})
    pin_estimates(nodes[1], 2.0, {2: links[1]})
    pin_estimates(nodes[2], 2.0, {3: links[2]})

    effects = nodes[0].start_flow(77, 0.5e6, 2.0)
    rreq = next(e for e in effects if isinstance(e, Unicast))
    assert rreq.to == 1
    hop1 = nodes[1].handle_rreq(rreq.packet, 0, 2.0)
    hop2 = nodes[2].handle_rreq(hop1[0].packet, 1, 2.0)
    reply = nodes[3].handle_rreq(hop2[0].packet, 2, 2.0)
    rrep = reply[0].packet
    assert rrep.path_bandwidth == min(links.values()) == 0.9e6
    assert rrep.hop_trace == (0, 1, 2, 3)

    back2 = nodes[2].handle_rrep(rrep, 3, 2.0)
    assert back2[0].to == 1
    assert nodes[2].routes[3].next_hop == 3
    back1 = nodes[1].handle_rrep(rrep, 2, 2.0)
    assert nodes[1].routes[3].next_hop == 2
    nodes[0].handle_rrep(rrep, 1, 2.0)
    assert nodes[0].flows[77].admitted
    assert nodes[0].routes[3].path_bandwidth == 0.9e6
    assert back1[0].to == 0


# ----- route freshness -----

def test_rrep_freshness_rules():
    env = line_env()
    node = QgrpNode(1, env)
    pin_estimates(node, 4.0, {2: 1.5e6})

    node.handle_rrep(Rrep(1, 0, 3, 4, 1.0e6, (0, 1, 2, 3)), 2, 4.0)
    assert (node.routes[3].dest_seq, node.routes[3].path_bandwidth) == (4, 1.0e6)

    # Higher sequence replaces even with lower bandwidth.
    node.handle_rrep(Rrep(1, 0, 3, 5, 0.8e6, (0, 1, 2, 3)), 2, 4.0)
    assert (node.routes[3].dest_seq, node.routes[3].path_bandwidth) == (5, 0.8e6)

    # Same sequence with strictly higher bandwidth replaces.
    node.handle_rrep(Rrep(1, 0, 3, 5, 1.2e6, (0, 1, 2, 3)), 2, 4.0)
    assert (node.routes[3].dest_seq, node.routes[3].path_bandwidth) == (5, 1.2e6)

    # Equal sequence and bandwidth keeps the stored entry (non-strict case),
    # but the packet is still forwarded toward the source.
    kept = node.routes[3]
    out = node.handle_rrep(Rrep(1, 0, 3, 5, 1.2e6, (0, 1, 2, 3)), 2, 4.0)
    assert node.routes[3] is kept
    assert out and out[0].to == 0


@settings(max_examples=300)
@given(st.integers(0, 50), st.floats(0, 2e6), st.integers(0, 50), st.floats(0, 2e6))
def test_freshness_is_a_strict_partial_order(s1, b1, s2, b2):
    assert not is_fresher(s1, b1, s1, b1)
    assert not (is_fresher(s1, b1, s2, b2) and is_fresher(s2, b2, s1, b1))


# ----- admission control at the source -----

def source_with_flow(policy="retry", grant=0.3e6):
    env = line_env(policy)
    node = QgrpNode(0, env)
    pin_estimates(node, 2.0, {1: 1.5e6})
    effects = node.start_flow(55, 0.5e6, 2.0)
    assert any(isinstance(e, Unicast) for e in effects)
    return env, node, AdmissionNotify(55, grant, 2)


def test_notify_retry_policy_keeps_requirement_and_schedules():
    env, node, notify = source_with_flow("retry")
    out = node.handle_admission_notify(notify, 1, 2.1)
    flow = node.flows[55]
    assert flow.required_bandwidth == 0.5e6
    assert not flow.admitted and not flow.failed
    (timer,) = out
    assert isinstance(timer, StartTimer) and timer.kind == "rreq_retry"
    assert timer.delay == 0.5  # first backoff step


def test_notify_reduce_policy_lowers_requirement_immediately():
    env, node, notify = source_with_flow("reduce")
    out = node.handle_admission_notify(notify, 1, 2.1)
    flow = node.flows[55]
    assert flow.required_bandwidth == 0.3e6
    assert any(isinstance(e, Unicast) and isinstance(e.packet, Rreq) for e in out)
    rreq = next(e.packet for e in out if isinstance(e, Unicast))
    assert rreq.required_bandwidth == 0.3e6


def test_retry_exhaustion_fails_flow_and_drops_buffer():
    env, node, notify = source_with_flow("retry")
    flow = node.flows[55]
    flow.buffered.append(Data(55, 2000, 2.05, 0))
    flow.rreq_retries_used = env.max_retries
    out = node.handle_admission_notify(notify, 1, 2.1)
    assert out == []
    assert flow.failed
    assert not flow.buffered
    assert env.rows_of("drop")[0][5] == "flow_failed"
    assert len(env.rows_of("flow_failed")) == 1


def test_retry_timer_reemits_with_incremented_index():
    env, node, _ = source_with_flow("retry")
    flow = node.flows[55]
    out = node.on_timer("rreq_timeout", (55, flow.timer_gen), 2.6)
    rreq = next(e.packet for e in out if isinstance(e, Unicast))
    assert rreq.retry_index == 1
    assert flow.rreq_retries_used == 1


def test_stale_timer_is_ignored_after_rrep():
    env, node, _ = source_with_flow("retry")
    flow = node.flows[55]
    stale_gen = flow.timer_gen
    node.handle_rrep(Rrep(55, 0, 3, 1, 1.0e6, (0, 1, 3)), 1, 2.2)
    assert flow.admitted
    assert node.on_timer("rreq_timeout", (55, stale_gen), 2.6) == []


def test_retry_recomputes_next_hop_after_neighbor_change():
    env = StubEnv(
        {0: Position(0, 0), 1: Position(150, 40), 2: Position(150, -40), 3: Position(600, 0)},
        sink_id=3,
    )
    node = QgrpNode(0, env)
    pin_estimates(node, 2.0, {1: 1.5e6, 2: 1.0e6})
    effects = node.start_flow(66, 0.5e6, 2.0)
    first = next(e for e in effects if isinstance(e, Unicast))
    assert first.to == 1
    # Neighbor 1 disappears before the retry fires.
    pin_estimates(node, 2.6, {2: 1.0e6})
    out = node.on_timer("rreq_timeout", (66, node.flows[66].timer_gen), 2.6)
    second = next(e for e in out if isinstance(e, Unicast))
    assert second.to == 2


# ----- data plane -----

def test_buffering_respects_capacity_drop_oldest():
    env, node, _ = source_with_flow("retry")
    for seq in range(6):  # capacity is 4 in the stub env
        node.on_data_emit(55, 2000, seq, 2.2 + seq * 0.01)
    flow = node.flows[55]
    assert [p.sequence for p in flow.buffered] == [2, 3, 4, 5]
    drops = env.rows_of("drop")
    assert [d[4] for d in drops] == [0, 1]
    assert all(d[5] == "buffer_overflow" for d in drops)


def test_admission_flushes_buffer_fifo():
    env, node, _ = source_with_flow("retry")
    for seq in range(3):
        node.on_data_emit(55, 2000, seq, 2.2)
    out = node.handle_rrep(Rrep(55, 0, 3, 1, 1.0e6, (0, 1, 3)), 1, 2.3)
    sent = [e.packet.sequence for e in out if isinstance(e, Unicast) and isinstance(e.packet, Data)]
    assert sent == [0, 1, 2]
    assert all(e.to == 1 for e in out if isinstance(e, Unicast))


def test_forward_data_without_route_drops_and_requests():
    env, node, _ = source_with_flow("retry")
    node.handle_rrep(Rrep(55, 0, 3, 1, 1.0e6, (0, 1, 3)), 1, 2.3)
    assert node.flows[55].admitted
    # Next hop 1 was last heard at 2.0; let its hello age past the expiry.
    now = 2.0 + env.hello_expiry + 0.5
    out = node.forward_data(Data(55, 2000, now, 9), now)
    assert any(r[2] == "drop" and r[5] == "no_route" for r in env.rows)
    assert not node.flows[55].admitted
    # A fresh establishment episode starts if any candidate remains; with no
    # neighbors the local rejection path schedules a retry.
    assert any(isinstance(e, StartTimer) for e in out)


@pytest.mark.parametrize("past_expiry, fresh", [(0.0, True), (1e-9, False)])
def test_hello_freshness_boundary(past_expiry, fresh):
    """A hello exactly hello_expiry old is fresh for estimates and data alike; older is stale."""
    env = line_env()
    node = QgrpNode(0, env)
    hello_into(node, 1, env.positions[1], 2.0)
    node.routes[3] = RouteEntry(3, 1, 1, 1.0e6)
    now = 2.0 + env.hello_expiry + past_expiry
    out = node.forward_data(Data(55, 2000, now, 0), now)
    assert [e.to for e in out] == ([1] if fresh else [])
    assert node.routes[3].valid is fresh
    node.refresh(now)
    assert (1 in node.estimates) is fresh


def test_sink_logs_delivery():
    env = line_env()
    sink = QgrpNode(3, env)
    sink.on_packet(Data(55, 2000, 4.0, 7), 2, 4.5)
    (row,) = env.rows_of("deliver")
    assert row[3:] == (55, 7, 4.0, 2000)


def test_node_energy_and_weights_validation():
    with pytest.raises(ValueError):
        NodeEnergy(-1.0, 40.0)
    with pytest.raises(ValueError):
        NodeEnergy(41.0, 40.0)
    with pytest.raises(ValueError):
        MetricWeights(0.7, 0.5)
    with pytest.raises(ValueError):
        MetricWeights(1.2, -0.2)
    assert MetricWeights(0.7, 0.3).alpha == 0.7
