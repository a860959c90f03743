import ast
import heapq
import math
import random
import statistics
import string
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim import simulator
from qgrpsim.actions import Data
from qgrpsim.aodv import AodvNode
from qgrpsim.config import parse_config
from qgrpsim.dcf import (REFERENCE_DENSITIES, REFERENCE_DISTANCES, DcfParams, build_table,
                         density_row, interpolate_p_c, lookup_p_c, reference_table)
from qgrpsim.geometry import Position, distance
from qgrpsim.link_estimation import NeighborRecord
from qgrpsim.metrics import compute_metrics
from qgrpsim.qgrp import Hello, QgrpNode
from qgrpsim.simulator import (
    Engine,
    build_link_cost,
    format_log,
    generate_topology,
    parse_log,
    radio_rx_energy,
    read_rows,
    run_scenario,
    window_of,
)
from conftest import constant_table, eager_charge, hello_death_config, reference_format_log


# ----- topology -----

def test_topology_minimal():
    topo = generate_topology(2, (1000.0, 1000.0), 5, 40.0)
    assert len(topo.nodes) == 2
    assert topo.sink_id in (0, 1)


def test_topology_rejects_tiny():
    with pytest.raises(ValueError):
        generate_topology(1, (1000.0, 1000.0), 0, 40.0)


def test_topology_deterministic():
    a = generate_topology(50, (1000.0, 1000.0), 123, 40.0)
    b = generate_topology(50, (1000.0, 1000.0), 123, 40.0)
    assert a.sink_id == b.sink_id
    assert [(n.position.x, n.position.y) for n in a.nodes] == [
        (n.position.x, n.position.y) for n in b.nodes
    ]


def assert_adjacency_matches_per_node_scan(engine):
    nodes = engine.topology.nodes
    tx = engine.cfg.topology.tx_range
    cs = engine.cfg.dcf.carrier_sense_radius
    for node in nodes:
        dist = {o.id: distance(node.position, o.position) for o in nodes}
        assert node.neighbor_ids == tuple(
            i for i in sorted(dist) if i != node.id and dist[i] <= tx
        )
        assert node.cs_mask == bytearray(dist[i] <= cs for i in range(len(nodes)))


def test_adjacency_matches_per_node_scan():
    # At n = 400, the light workloads' size, about half of all pairs are within carrier sense.
    for n in (60, 400):
        cfg = parse_config(f"[topology]\nn = {n}\nseed = 4\n")
        assert_adjacency_matches_per_node_scan(Engine(cfg, table=constant_table(0.0)))


# Unit offsets along the axes: from integer coordinates they land exactly on a radius.
AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@settings(deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000), st.lists(st.one_of(
    st.tuples(st.just("free"), st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
    st.tuples(st.sampled_from(["tx", "cs"]), st.integers(0, 100), st.sampled_from(AXES)),
), min_size=1, max_size=24))
def test_adjacency_matches_distance_reference(x0, y0, placements):
    cfg = parse_config(f"[topology]\nn = {len(placements) + 1}\n")
    engine = Engine(cfg, table=constant_table(0.0))
    radius = {"tx": cfg.topology.tx_range, "cs": cfg.dcf.carrier_sense_radius}
    positions = [Position(float(x0), float(y0))]
    anchored = [positions[0]]  # integer coordinates
    for how, a, b in placements:
        if how == "free":
            positions.append(Position(a, b))
            continue
        base = anchored[a % len(anchored)]
        r = radius[how]
        placed = Position(base.x + b[0] * r, base.y + b[1] * r)
        assert distance(base, placed) == distance(placed, base) == r
        positions.append(placed)
        anchored.append(placed)
    for node, position in zip(engine.topology.nodes, positions):
        node.position = position
    engine._precompute_adjacency()
    assert_adjacency_matches_per_node_scan(engine)


def test_topology_positions_inside_field():
    topo = generate_topology(200, (800.0, 600.0), 9, 40.0)
    assert all(0 <= n.position.x <= 800 and 0 <= n.position.y <= 600 for n in topo.nodes)


def test_mean_neighbor_degree_over_seeds():
    degrees = []
    for seed in range(50):
        topo = generate_topology(100, (1000.0, 1000.0), seed, 40.0)
        nodes = topo.nodes
        count = 0
        for a in nodes:
            for b in nodes:
                if a.id < b.id:
                    dx = a.position.x - b.position.x
                    dy = a.position.y - b.position.y
                    if dx * dx + dy * dy <= 250.0**2:
                        count += 2
        degrees.append(count / len(nodes))
    mean_degree = statistics.mean(degrees)
    assert 15.0 <= mean_degree <= 20.0


# ----- channel arithmetic -----

def test_airtime_at_zero_collision():
    # 2000 bits at 2 Mbit/s plus 15.5 slots of 50 us.
    cost = build_link_cost(0.0, 100.0, DcfParams(), 50e-9, 100e-12)
    assert 2000 / 2e6 + cost.contention_s == pytest.approx(1.775e-3, rel=1e-12)


def test_radio_energy_examples():
    assert radio_rx_energy(2000, 50e-9) == pytest.approx(100e-6, rel=1e-12)
    cost = build_link_cost(0.0, 250.0, DcfParams(), 50e-9, 100e-12)
    assert cost.tx_j_per_bit * 2000 == pytest.approx(12.6e-3, rel=1e-12)


def test_engine_solves_the_table_on_the_reference_grid():
    cfg = parse_config("[topology]\nn = 2\n[dcf]\ncw_min = 16\n")
    table = Engine(cfg).table
    assert (table.densities, table.distances) == (REFERENCE_DENSITIES, REFERENCE_DISTANCES)
    assert table == build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, cfg.dcf)


def test_collision_certain_table_is_rejected():
    with pytest.raises(ValueError, match="density 1.0, distance 1.0"):
        Engine(parse_config("[topology]\nn = 2\n"), table=constant_table(1.0))


def test_event_before_its_cause_raises():
    # One case for a transmission end and one for a timer.
    for kind, payload in ((simulator._TX_DONE, (0,)), (simulator._TIMER, (0, "hello", ()))):
        engine = Engine(run_cfg())
        engine._schedule(-1.0, kind, *payload)
        with pytest.raises(RuntimeError, match="before its cause"):
            engine.run()


class RecordingHeapq:
    """Stands in for an engine's `heapq` module and records every push and pop.

    It also records the event heap's peak length, and at each pop how long
    the ready queue was and whether the pop took from it.
    """

    def __init__(self, engine):
        self.engine = engine
        self.pushed = []
        self.popped = []
        self.peak = 0
        self.ready_at_pop = []

    def heappush(self, heap, item):
        self.pushed.append(item)
        heapq.heappush(heap, item)
        if heap is self.engine._heap:
            self.peak = max(self.peak, len(heap))

    def heappop(self, heap):
        self.ready_at_pop.append((len(self.engine._ready), heap is self.engine._ready))
        item = heapq.heappop(heap)
        self.popped.append(item)
        return item


class StubProtocol:
    """A node protocol that starts nothing and records its timers."""

    def __init__(self, dispatched):
        self.dispatched = dispatched

    def start(self, now):
        return []

    def on_timer(self, kind, payload, now):
        self.dispatched.append((simulator._TIMER, now, None))
        return []


# A payload of the right arity for each non-reception kind; the stub handlers ignore it.
EVENT_PAYLOADS = {
    simulator._TX_DONE: (0,),
    simulator._TIMER: (0, "stub", ()),
    simulator._EMIT: (0, 0),
    simulator._FLOW_START: (0,),
}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(EVENT_PAYLOADS) + [simulator._ARRIVAL] * 2),
                          st.sampled_from([0.0, 0.25, 1.0, 2.5, 5.0]) | st.floats(0.0, 5.0),
                          st.integers(1, 5)),
                max_size=40))
def test_run_dispatches_in_time_seq_order(events):
    # Few distinct times, so many events tie.  A reception block of one receiver is a
    # unicast's; of 2-5, a broadcast's.
    engine = Engine(run_cfg("[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"))
    dispatched = []
    for node in engine.topology.nodes:
        node.protocol = StubProtocol(dispatched)

    def on_arrival(to_id, from_id, pkt, bits, now):
        dispatched.append((simulator._ARRIVAL, now, (to_id, from_id)))
        if to_id == 1 and from_id % 3 == 0:
            # An event a handler schedules at the current time waits for the end of the
            # block: its sequence number follows the block's.
            engine._schedule(now, simulator._TIMER, *EVENT_PAYLOADS[simulator._TIMER])

    engine._on_arrival = on_arrival
    engine._on_emit = lambda *args: dispatched.append((simulator._EMIT, args[-1], None))
    engine._on_flow_start = lambda *args: dispatched.append(
        (simulator._FLOW_START, args[-1], None))
    recorder = RecordingHeapq(engine)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "heapq", recorder)
        for i, (kind, time, receivers) in enumerate(events):
            if kind == simulator._ARRIVAL:
                size = len(engine._heap)
                # Each block has a sender id of its own, so tied blocks stay apart.
                engine._schedule_receptions(time, tuple(range(1, receivers + 1)), i, None, 0)
                assert len(engine._heap) == size + 1  # one entry per transmission
            else:
                engine._schedule(time, kind, *EVENT_PAYLOADS[kind])
        engine.run()  # adds the flow's start and first emission
    entries = sorted(recorder.pushed)
    # Every heap entry has a sequence number of its own, and a block takes one like any
    # other event: the numbers run 1, 2, ... without a gap.
    assert sorted(e[1] for e in entries) == list(range(1, len(entries) + 1))
    # Heap pops follow (time, seq), the events handlers scheduled included.  A block's
    # token pops (time, 1) ... (time, len - 1), one before each further reception, follow
    # it straight away, and they are the only pops from the ready queue.
    expected = []
    for e in entries:
        expected.append(e)
        if e[2] == simulator._ARRIVAL:
            expected += [(e[0], k) for k in range(1, len(e[3]))]
    assert recorder.popped == expected
    assert [from_ready for _, from_ready in recorder.ready_at_pop] == [
        len(e) == 2 for e in expected]
    # The ready queue never holds more than one entry.
    assert all(size <= 1 for size, _ in recorder.ready_at_pop)
    assert engine._ready == []
    expanded = []
    for e in entries:
        if e[2] == simulator._ARRIVAL:
            expanded += [(e[2], e[0], (to_id, e[4])) for to_id in e[3]]
        elif e[2] != simulator._TX_DONE:
            expanded.append((e[2], e[0], None))
    assert dispatched == expanded
    assert engine.nodes[0].pending_tx == -sum(e[2] == simulator._TX_DONE for e in entries)


def test_aodv_flood_keeps_the_near_queue_short():
    # Every node repeats the first RREQ flood; its receptions must not pile up one entry each.
    flows = "".join(f"[flow:{i}]\nrate_bps = 20000.0\n" for i in range(3))
    cfg = parse_config("[topology]\nn = 200\n[protocol]\nname = aodv\n"
                       "[sim]\nduration_s = 40.0\n" + flows)
    engine = Engine(cfg, seed=1)
    recorder = RecordingHeapq(engine)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "heapq", recorder)
        engine.run()
    log = engine.event_log
    rx = sum(row[2] == "rx" for row in log)
    assert not any(row[2] == "death" for row in log)
    assert sum(row[2] == "rx" and row[3] == "aodvrreq" for row in log) > 20 * cfg.topology.n
    assert recorder.peak < 3 * cfg.topology.n, recorder.peak
    # One heap entry per transmission that reached anyone, one reception per rx row: a
    # block's first pops from the heap, and each other one pops its token (time, k).
    horizon = cfg.sim.duration
    blocks = [e for e in recorder.pushed if e[2] == simulator._ARRIVAL]
    assert len(blocks) <= sum(row[2] == "tx" for row in log)
    assert sum(len(e[3]) for e in blocks if e[0] <= horizon) == rx
    assert sum((len(e) == 2 or e[2] == simulator._ARRIVAL) and e[0] <= horizon
               for e in recorder.popped) == rx


@pytest.mark.parametrize("window", [0.7, 0.1, 0.3, 1.1])
def test_airtime_splits_at_rounded_window_edges(window):
    # At these windows some edges k * window divide back to just below k, so t / window
    # puts a time on such an edge in the bucket the edge closes.
    edges = [k for k in range(1, 400) if int(k * window / window) == k - 1]
    assert len(edges) >= 5
    cfg = parse_config(f"[topology]\nn = 5\nseed = 2\n[hello]\nidle_window_s = {window}\n")
    engine = Engine(cfg, table=constant_table(0.0))
    sender = engine.nodes[0]
    for k in edges[:20]:
        edge = k * window
        for start in (edge - 0.25 * window, math.nextafter(edge, 0.0), edge):
            for duration in (0.5 * window, 2.5 * window):
                engine._charges.clear()
                engine._charge_busy(sender, start, duration)
                buckets = list(engine._charges)
                charges = [engine._charges[b] for b in buckets]
                assert all(senders == [sender.id] and len(seg) == 1 for senders, seg in charges)
                segs = [seg[0] for _, seg in charges]
                assert all(seg > 0.0 for seg in segs)
                assert buckets == sorted(set(buckets))
                assert buckets[0] == (k if start == edge else k - 1)
                assert math.fsum(segs) == pytest.approx(duration, rel=1e-12)
                ref = [{} for _ in engine.nodes]
                eager_charge(ref, engine.nodes, window, sender, start, duration)
                assert ref[sender.id] == dict(zip(buckets, segs))


@pytest.mark.parametrize("window", [0.7, 0.1, 0.3, 1.1])
def test_idle_read_at_a_rounded_window_edge_reads_the_window_it_closes(window):
    # At a time on such an edge k * window, t / window reads just below k; the read must
    # still take window k - 1, which has just closed, and not window k - 2.
    edges = [k for k in range(1, 400) if int(k * window / window) == k - 1]
    assert len(edges) >= 5
    cfg = parse_config(f"[topology]\nn = 5\nseed = 2\n[hello]\nidle_window_s = {window}\n")
    for k in edges[:20]:
        engine = Engine(cfg, table=constant_table(0.0))
        sender = engine.nodes[0]
        engine._charge_busy(sender, (k - 0.75) * window, 0.5 * window)  # inside window k - 1
        assert engine.idle_fraction(sender.id, k * window) == pytest.approx(0.5)
        assert list(sender.busy) == [k - 1]
        # Window k opens at the edge, so airtime from the edge on may still be charged.
        engine._charge_busy(sender, k * window, 0.25 * window)
        assert list(engine._charges) == [k - 1, k]


def test_run_finishes_at_an_idle_window_with_rounded_edges():
    cfg = parse_config(
        "[topology]\nn = 20\nseed = 1\nfield_width = 400.0\nfield_height = 400.0\n"
        "[hello]\nidle_window_s = 0.7\n"
        "[sim]\nduration_s = 10.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"
    )
    engine = Engine(cfg).run()
    log = engine.event_log
    assert any(row[2] == "deliver" for row in log)
    # Read in every window, each node's busy time is the airtime of every transmission it
    # senses.  A read at (bucket + 1.5) windows lies clear of the rounded edges.
    window = cfg.hello.idle_window
    buckets = range(max(engine._charges) + 1)
    for node in engine.nodes:
        for bucket in buckets:
            engine.idle_fraction(node.id, (bucket + 1.5) * window)
    airtime = [0.0] * len(engine.nodes)
    for row in log:
        if row[2] == "tx":
            for node in engine.nodes:
                if node.cs_mask[row[1]]:
                    airtime[node.id] += row[8]
    for node in engine.nodes:
        assert math.fsum(node.busy.values()) == pytest.approx(airtime[node.id], rel=1e-9)


def test_settled_busy_time_equals_eager_charging():
    cfg = parse_config("[topology]\nn = 30\nseed = 5\n[hello]\nidle_window_s = 0.25\n")
    window = cfg.hello.idle_window
    engine = Engine(cfg, table=constant_table(0.0))
    nodes = engine.topology.nodes
    ref = {node.id: {} for node in nodes}
    rng = random.Random(3)
    unread = []  # (node id, bucket) pairs of closed windows, in shuffled order
    closed = -1  # the last bucket whose pairs are in unread or read

    def read(node_id, bucket, at):
        assert window_of(at, window) - 1 == bucket
        idle = engine.idle_fraction(node_id, at)
        busy = ref[node_id].get(bucket, 0.0)
        assert nodes[node_id].busy[bucket] == busy
        assert idle == max(0.0, 1.0 - busy / window)
        if not busy:
            assert idle == 1.0
        return busy

    now = 0.0
    straddles = zero_reads = 0
    for k in range(600):
        now += rng.uniform(0.0, 0.01) + (2.0 if k == 450 else 0.0)  # a silent stretch
        sender = rng.choice(nodes)
        start = now + rng.uniform(0.0, 0.05)
        duration = 3.3 * window if k == 300 else rng.uniform(1e-4, 0.1)
        straddles += int(start / window) != int((start + duration) / window)
        engine._charge_busy(sender, start, duration)
        eager_charge(ref, nodes, window, sender, start, duration)
        # Windows closed before the one now's read settles, read at a past time in the
        # window after them, the way a hello's send time is read.
        while closed < window_of(now, window) - 2:
            closed += 1
            unread += [(node.id, closed) for node in nodes]
            rng.shuffle(unread)
        for _ in range(min(len(unread), rng.randrange(4))):
            node_id, bucket = unread.pop()
            zero_reads += not read(node_id, bucket, (bucket + rng.uniform(1.1, 1.9)) * window)
        if k % 23 == 0:  # a hello-time read: the last window closed by now
            node_id = rng.choice(nodes).id
            bucket = window_of(now, window) - 1
            if bucket >= 0 and bucket not in nodes[node_id].busy:
                read(node_id, bucket, now)
    assert straddles > 100
    unread += [(node.id, bucket) for bucket in range(closed + 1, max(engine._charges) + 1)
               for node in nodes]
    rng.shuffle(unread)
    for node_id, bucket in unread:
        if bucket not in nodes[node_id].busy:
            zero_reads += not read(node_id, bucket, (bucket + 1.5) * window)
    assert zero_reads > 100
    buckets = range(max(engine._charges) + 1)
    assert all(set(nodes[i].busy) == set(buckets) >= set(ref[i]) for i in ref)


def test_charge_to_a_settled_bucket_raises():
    cfg = parse_config("[topology]\nn = 5\nseed = 2\n[hello]\nidle_window_s = 0.25\n")
    engine = Engine(cfg, table=constant_table(0.0))
    sender = engine.topology.nodes[0]
    engine._charge_busy(sender, 0.9, 0.2)
    assert engine.idle_fraction(sender.id, 1.0) == pytest.approx(0.6)  # settles bucket 3
    with pytest.raises(RuntimeError, match="already read"):
        engine._charge_busy(sender, 0.99, 0.005)
    engine._charge_busy(sender, 1.0, 0.01)  # bucket 4 is still open


def test_a_hello_reports_its_senders_idle_share_as_of_its_send_time():
    cfg = parse_config("[topology]\nn = 2\nseed = 1\nfield_width = 100.0\nfield_height = 100.0\n")
    engine = Engine(cfg, table=constant_table(0.0))
    sender, receiver = engine.nodes
    assert receiver.cs_mask[sender.id]
    engine._charge_busy(sender, 0.2, 0.3)  # window 0: 0.3 s busy
    engine._charge_busy(sender, 1.5, 0.45)  # window 1: 0.45 s busy
    # Sent just before the edge at 2 s, so its idle share is window 0's, and heard after it.
    hello = sender.protocol._emit_hello(1.999)[0].packet
    bits = cfg.pkt.hello
    assert engine._receive_hellos((receiver.id,), sender.id, hello, bits, 2.05) is None
    record = receiver.protocol.neighbors[sender.id]
    assert engine._on_arrival(receiver.id, sender.id, hello, bits, 2.05) is None
    engine._charge_busy(receiver, 2.1, 0.6)  # window 2, charged after the hello
    receiver.protocol.refresh(3.1)
    rec = receiver.protocol.neighbors[sender.id]
    assert rec is record
    assert rec == NeighborRecord(hello.residual_energy, 1.999, 2.05)
    # Read at the reception time or at the refresh, the sender's share would be another.
    assert engine.idle_fraction(sender.id, 2.05) == pytest.approx(0.55)
    assert engine.idle_fraction(sender.id, 3.1) == pytest.approx(0.4)
    local, peer = 0.4, 0.7  # the receiver's window 2 and the sender's window 0
    cost = engine.link_cost(receiver.id, sender.id)
    expected = cfg.mac.b_no * local * peer * (1.0 - cost.p_c) * (1.0 - cost.backoff_overhead)
    assert receiver.protocol.estimates == {sender.id: pytest.approx(expected, rel=1e-12)}


def test_broadcast_p_c_matches_link_costs():
    cfg = parse_config(
        "[topology]\nn = 40\nseed = 7\n"
        "[sim]\nduration_s = 1.5\nwarm_up_s = 0.0\nrepetitions = 1\n"
    )
    engine = Engine(cfg, table=reference_table()).run()
    assert set(engine._broadcast_p_c) == {n.id for n in engine.nodes}  # every node sent a hello
    for u, p_cs in engine._broadcast_p_c.items():
        assert p_cs == tuple(engine.link_cost(u, v).p_c for v in engine.nodes[u].neighbor_ids)
    # The reference grid's p_c rises with distance, so the draws differ per link.
    assert len({p_c for p_cs in engine._broadcast_p_c.values() for p_c in p_cs}) > 1


def test_each_link_p_c_is_looked_up_once(monkeypatch):
    calls = []
    rows = []

    def counting_interpolate(row, dist_axis, dist):
        calls.append(dist)
        return interpolate_p_c(row, dist_axis, dist)

    def counting_row(table, density):
        rows.append(density)
        return density_row(table, density)

    monkeypatch.setattr(simulator, "interpolate_p_c", counting_interpolate)
    monkeypatch.setattr(simulator, "density_row", counting_row)
    cfg = parse_config(
        "[topology]\nn = 40\nseed = 7\n"
        "[sim]\nduration_s = 3.0\nwarm_up_s = 0.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"
    )
    table = reference_table()
    engine = Engine(cfg, table=table).run()
    broadcast_links = {(u, v) for u in engine._broadcast_p_c
                       for v in engine.nodes[u].neighbor_ids}
    # Unicast and route-plane links are broadcast links too.
    assert engine._link_cache
    assert set(engine._link_cache) <= broadcast_links
    # One lookup per undirected broadcast link, one per link cost, and one for the
    # broadcast record at tx_range.
    undirected = {(min(u, v), max(u, v)) for u, v in broadcast_links}
    assert len(calls) == len(undirected) + len(engine._link_cache) + 1
    # The density is fixed per engine, so its row is snapped once.
    assert rows == [engine.density]
    # Where both ends have a tuple, the two directions hold the same p_c.
    shared = 0
    for u, v in undirected:
        if u in engine._broadcast_p_c and v in engine._broadcast_p_c:
            i = engine.nodes[u].neighbor_ids.index(v)
            j = engine.nodes[v].neighbor_ids.index(u)
            assert engine._broadcast_p_c[u][i] == engine._broadcast_p_c[v][j]
            shared += 1
    assert shared
    for (u, v), cost in engine._link_cache.items():
        d = distance(engine.nodes[u].position, engine.nodes[v].position)
        assert cost.p_c == lookup_p_c(table, engine.density, d)


def always_lost_engine():
    """Two nodes whose every MAC draw is 0.0: each attempt on a lossy link fails."""
    cfg = parse_config("[topology]\nn = 2\nseed = 1\n")
    engine = Engine(cfg, table=constant_table(0.25))
    engine.rng = SimpleNamespace(random=lambda: 0.0)
    return engine


@pytest.mark.parametrize("pkt", [Data(1, 2000, 0.0, 9), Hello(1.0, 1.0)])
def test_receiver_dies_on_a_reception_it_cannot_pay_for(pkt):
    engine = always_lost_engine()
    receiver = engine.topology.nodes[1]
    bits = 2160
    residual = 0.4 * radio_rx_energy(bits, engine.cfg.energy.e_elec)
    receiver.energy.residual = residual
    handled = []
    receiver.protocol.on_packet = lambda *args: handled.append(args) or []
    receiver.protocol.on_hello = lambda *args: handled.append(args)
    if isinstance(pkt, Hello):
        # A hello's debit and rows are made with its block, before its first reception.
        assert engine._receive_hellos((receiver.id,), 0, pkt, bits, 2.5) is None
    engine._on_arrival(receiver.id, 0, pkt, bits, 2.5)
    rows = [row for row in engine.event_log if row[1] == receiver.id]
    assert rows[0][2:4] == ("rx", "data" if isinstance(pkt, Data) else "hello")
    assert rows[0][6] == residual
    assert rows[1] == (2.5, receiver.id, "death")
    if isinstance(pkt, Data):
        assert rows[2:] == [(2.5, receiver.id, "drop", 1, 9, "dead_receiver")]
    else:
        assert rows[2:] == []
    assert not receiver.alive and receiver.energy.residual == 0.0
    assert handled == []


class HelloRecorder(StubProtocol):
    """A stub protocol that also records the hellos it hears, by receiver."""

    def __init__(self, node_id, heard):
        super().__init__([])
        self.node_id = node_id
        self.heard = heard

    def on_hello(self, sender, record):
        self.heard.append(self.node_id)


@pytest.mark.parametrize("alive", [True, False])
def test_on_arrival_ignores_a_hello(alive):
    engine = always_lost_engine()
    receiver = engine.topology.nodes[1]
    heard = []
    receiver.protocol = HelloRecorder(receiver.id, heard)
    receiver.alive = alive
    if not alive:
        receiver.energy.residual = 0.0
    residual = receiver.energy.residual
    calls = []
    engine._debit = lambda *args: calls.append(("_debit", args))
    engine.log_row = lambda *args: calls.append(("log_row", args))
    assert engine._on_arrival(receiver.id, 0, Hello(1.0, 1.0), 2160, 2.5) is None
    assert calls == []
    assert list(engine.event_log) == []
    assert receiver.energy.residual == residual
    assert heard == []


def test_receive_hellos_stores_the_blocks_record_at_each_survivor():
    # Receivers 1-5: 2 is dead before the block, and 3 dies on its debit.
    engine = Engine(run_cfg(), table=constant_table(0.0))
    bits = engine.cfg.pkt.hello
    initial = engine.cfg.energy.initial
    dead, exact = engine.nodes[2], engine.nodes[3]
    dead.alive = False
    dead.energy.residual = 0.0
    exact.energy.residual = radio_rx_energy(bits, engine.cfg.energy.e_elec)
    assert engine._receive_hellos((1, 2, 3, 4, 5), 0, Hello(initial, 0.9), bits, 1.0) is None
    neighbors = [node.protocol.neighbors for node in engine.nodes]
    record = neighbors[1][0]
    assert record == NeighborRecord(initial, 0.9, 1.0)
    assert neighbors[4][0] is record and neighbors[5][0] is record
    assert [i for i, known in enumerate(neighbors) if known] == [1, 4, 5]
    assert [row[1:3] for row in engine.event_log] == [
        (1, "rx"), (3, "rx"), (3, "death"), (4, "rx"), (5, "rx")]


def test_a_hello_block_is_settled_around_a_death():
    # Receivers: one survivor, one already dead, one whose residual is the rx energy
    # exactly (it dies), then two survivors.
    engine = Engine(run_cfg(), table=constant_table(0.0))
    heard = []
    for node in engine.nodes:
        node.protocol = HelloRecorder(node.id, heard)
    bits = 160
    amount = radio_rx_energy(bits, engine.cfg.energy.e_elec)
    initial = engine.cfg.energy.initial
    survivor, dead, exact, later, last = (engine.nodes[i] for i in (1, 2, 3, 4, 5))
    dead.alive = False
    dead.energy.residual = 0.0
    exact.energy.residual = amount
    arrivals = []
    on_arrival = engine._on_arrival

    def counting_on_arrival(*args):
        arrivals.append(args[0])
        return on_arrival(*args)

    engine._on_arrival = counting_on_arrival
    engine._schedule_receptions(1.0, (1, 2, 3, 4, 5), 0, Hello(initial, 0.9), bits)
    engine.run()
    entries = simulator.log_entries(engine.event_log)[len(engine.nodes):]
    assert entries[:3] == [(1.0, 1, "rx", "hello", bits, 0, amount),
                           (1.0, 3, "rx", "hello", bits, 0, amount),
                           (1.0, 3, "death")]
    assert type(entries[0]) is tuple
    run = entries[3]
    assert type(run) is simulator.RxRun and len(entries) == 4
    assert list(run) == [(1.0, 4, "rx", "hello", bits, 0, amount),
                         (1.0, 5, "rx", "hello", bits, 0, amount)]
    assert [(n.alive, n.energy.residual) for n in (survivor, dead, exact, later, last)] == [
        (True, initial - amount), (False, 0.0), (False, 0.0),
        (True, initial - amount), (True, initial - amount)]
    assert heard == [1, 4, 5]
    assert arrivals == [1, 2, 3, 4, 5]


def test_a_hello_blocks_receivers_share_one_frozen_record(monkeypatch):
    # Block A reaches receivers 1-5: 2 is dead before it, and 3 dies on it.  Block B, from
    # the same sender, reaches 1 and 5: 4 lost it.
    engine = Engine(run_cfg(), table=constant_table(0.0))
    for node in engine.nodes:
        node.protocol.start = lambda now: []  # no hello but the two blocks below
    heard = []
    on_hello = QgrpNode.on_hello
    monkeypatch.setattr(QgrpNode, "on_hello", lambda self, sender, record:
                        heard.append((self.id, sender, record)) or on_hello(self, sender, record))
    bits = engine.cfg.pkt.hello
    initial = engine.cfg.energy.initial
    dead, exact = engine.nodes[2], engine.nodes[3]
    dead.alive = False
    dead.energy.residual = 0.0
    exact.energy.residual = radio_rx_energy(bits, engine.cfg.energy.e_elec)
    engine._schedule_receptions(1.0, (1, 2, 3, 4, 5), 0, Hello(initial, 0.9), bits)
    engine._schedule_receptions(2.0, (1, 5), 0, Hello(initial - 1.0, 1.9), bits)
    engine.run()
    first, second = heard[0][2], heard[3][2]
    assert heard == [(1, 0, first), (4, 0, first), (5, 0, first),
                     (1, 0, second), (5, 0, second)]
    assert all(rec is first for _, _, rec in heard[:3])
    assert all(rec is second for _, _, rec in heard[3:])
    assert first == NeighborRecord(initial, 0.9, 1.0)
    assert second == NeighborRecord(initial - 1.0, 1.9, 2.0)
    neighbors = [node.protocol.neighbors for node in engine.nodes]
    assert neighbors[1] == {0: second} and neighbors[1][0] is neighbors[5][0] is second
    assert neighbors[4] == {0: first} and neighbors[4][0] is first
    assert [i for i, known in enumerate(neighbors) if known] == [1, 4, 5]
    for name in ("residual_energy", "sent_at", "last_heard"):
        with pytest.raises(FrozenInstanceError):
            setattr(first, name, 0.0)
    assert first == NeighborRecord(initial, 0.9, 1.0)


def test_unicast_sender_dies_on_its_second_attempt():
    engine = always_lost_engine()
    sender, receiver = engine.topology.nodes
    bits = 2160
    per_attempt = engine.link_cost(sender.id, receiver.id).tx_j_per_bit * bits
    residual = sender.energy.residual = 1.5 * per_attempt
    engine._transmit_unicast(sender, receiver.id, Data(1, 2000, 0.0, 4), bits, 0.5)
    tx, death, drop = engine.event_log
    assert tx[2] == "tx" and tx[6] == 2  # attempts
    assert tx[7] == residual
    assert death == (0.5, sender.id, "death")
    assert drop == (0.5, sender.id, "drop", 1, 4, "mac_loss")
    assert not sender.alive and sender.energy.residual == 0.0


def test_unicast_loss_rate_matches_configured_p_c():
    cfg = parse_config(
        "[topology]\nn = 2\nseed = 1\n"
        "[mac]\nretries = 0\nqueue_limit = 1000000\n"
        "[sim]\nduration_s = 1.0\nwarm_up_s = 0.0\nrepetitions = 1\n"
    )
    engine = Engine(cfg, table=constant_table(0.25))
    sender = engine.topology.nodes[0]
    receiver_id = engine.topology.nodes[1].id
    sender.energy.residual = sender.energy.initial = 1e9  # keep it alive throughout
    attempts = 100_000
    for i in range(attempts):
        engine._transmit_unicast(sender, receiver_id, Data(1, 2000, 0.0, i), 2160, 0.0)
    losses = sum(1 for row in engine.event_log if row[2] == "drop" and row[5] == "mac_loss")
    assert abs(losses / attempts - 0.25) <= 0.01


# ----- runs -----

def run_cfg(extra=""):
    return parse_config(
        "[topology]\nn = 15\nseed = 3\n"
        "[sim]\nduration_s = 5.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        + extra
    )


def test_flow_source_outside_the_network_is_refused():
    # parse_config refuses these sources; a config built directly meets the engine's check.
    # Node ids index a list, so without it source -1 would silently be the last node.
    cfg = run_cfg("[flow:1]\nrate_bps = 100000.0\n")
    n = cfg.topology.n
    for source in (-1, n):
        flows = (replace(cfg.flows[0], source=source),)
        with pytest.raises(ValueError, match=f"flow 1: unknown source {source}$"):
            Engine(replace(cfg, flows=flows))
    flows = (replace(cfg.flows[0], source=0), replace(cfg.flows[0], flow_id=2, source=n - 1))
    assert [f.source for f in Engine(replace(cfg, flows=flows)).flows] == [0, n - 1]


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_hellos_reach_on_hello_and_nothing_else(monkeypatch, protocol):
    node_cls = QgrpNode if protocol == "qgrp" else AodvNode
    hellos, packets = [], []
    original_packet = node_cls.on_packet

    def on_packet(self, pkt, from_id, now):
        packets.append(pkt)
        return original_packet(self, pkt, from_id, now)

    monkeypatch.setattr(node_cls, "on_packet", on_packet)
    if protocol == "qgrp":
        original_hello = QgrpNode.on_hello

        def on_hello(self, sender, record):
            hellos.append(record)
            return original_hello(self, sender, record)

        monkeypatch.setattr(QgrpNode, "on_hello", on_hello)
    cfg = run_cfg(f"[protocol]\nname = {protocol}\n"
                  "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n")
    result = run_scenario(cfg)
    log = result.event_log
    sink = result.engine.sink_id
    assert not any(row[2] == "death" for row in log)
    rx = [row for row in log if row[2] == "rx"]
    hello_rx = sum(1 for row in rx if row[3] == "hello")
    delivered = sum(1 for row in rx if row[1] == sink and row[3] == "data")
    assert delivered > 0
    assert not any(isinstance(pkt, Hello) for pkt in packets)
    assert len(hellos) == hello_rx
    # Every reception but a hello or the sink's data reaches on_packet.
    assert len(packets) == len(rx) - hello_rx - delivered > 0
    if protocol == "qgrp":
        assert hello_rx > 0
    else:
        assert hello_rx == 0


def test_zero_flows_spends_energy_on_hellos_only():
    cfg = run_cfg()
    result = run_scenario(cfg)
    assert result.metrics.throughput == 0.0
    assert result.metrics.pdr is None
    tx_kinds = {row[3] for row in result.event_log if row[2] == "tx"}
    assert tx_kinds <= {"hello"}
    assert any(row[2] == "tx" for row in result.event_log)


def test_single_short_flow_delivers_almost_everything():
    cfg = run_cfg("[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n")
    result = run_scenario(cfg)
    assert result.metrics.pdr >= 0.99


def test_one_hop_flow_pdr_bound():
    # Two nodes 150 m apart; residual loss after 4 retransmissions is p_c^5.
    cfg = parse_config(
        "[topology]\nn = 2\nseed = 8\nfield_width = 160.0\nfield_height = 10.0\n"
        "[sim]\nduration_s = 10.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n"
    )
    result = run_scenario(cfg)
    assert result.metrics.pdr >= 0.99


def test_identical_runs_are_bit_identical():
    cfg = run_cfg("[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert format_log(a.event_log) == format_log(b.event_log)
    assert a.metrics == b.metrics


def test_event_times_never_regress():
    cfg = run_cfg("[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n")
    log = run_scenario(cfg).event_log
    times = [row[0] for row in log]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_log_round_trip_preserves_metrics():
    cfg = run_cfg("[flow:1]\nrate_bps = 150000.0\nstart_s = 1.0\n")
    result = run_scenario(cfg)
    back = parse_log(format_log(result.event_log))
    assert back == result.event_log
    assert compute_metrics(back, cfg) == result.metrics


# Lines format_log never writes, each refused by the row pattern.  The first two are
# operator chains tens of thousands deep; the rest are fields, or a field separator,
# that the pattern's groups do not accept.
NOT_ROWS = {
    "200000_terms": "1" + "+1" * 200_000,
    "100000_signs": "-" * 100_000 + "1",
    "words": "not a row",
    "nested_tuple": "0.0,1,'admit',((1, 2),)",
    "leading_zero": "0.0,01,'death'",
    "empty_field": "0.0,,'death'",
    "trailing_comma": "0.0,1,'death',",
    "tuple_without_space": "0.0,1,'admit',(1,2)",
    "bare_point": "1.,1,'death'",
    "no_int_part": ".5,1,'death'",
    "exponent_without_sign": "1e5,1,'death'",
    "inf": "inf,1,'death'",
    "nan": "nan,1,'death'",
    "two_words": "0.0,1,'two words'",
}


@pytest.mark.parametrize("line", NOT_ROWS.values(), ids=NOT_ROWS.keys())
def test_read_rows_refuses_a_line_format_log_does_not_write(line):
    with pytest.raises(ValueError, match="^not a log row: "):
        list(read_rows(["0.0,0,'death'\n", line + "\n"]))


# Field values of each kind format_log writes, with the alike values a parser could
# confuse: 0 and -0.0 against 0.0, 1 and True against 1.0, and float reprs with and
# without a point or an exponent.
LOG_FIELDS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -1, 0.0, -0.0, 1.0, 5e-324, 1e+16, -1.5e-05, True, False]),
    st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8),
    st.lists(st.integers(), max_size=3).map(tuple),
)


@given(st.lists(st.lists(LOG_FIELDS, min_size=1, max_size=8), max_size=4))
def test_read_rows_gives_each_field_its_exact_type_and_value(rows):
    # ast is the reference: it reads a written line as the Python literals it is.
    lines = [",".join(map(repr, row)) for row in rows]
    got = [[(type(v), repr(v)) for v in row] for row in read_rows(line + "\n" for line in lines)]
    assert got == [[(type(v), repr(v)) for v in ast.literal_eval(f"({line},)")]
                   for line in lines]


@pytest.mark.parametrize("rows", [0, 1, 2 * simulator._FORMAT_CHUNK_ROWS + 3])
def test_format_log_matches_one_join(rows):
    log = [(0.5 * i, i, "rx", "hello", 160, i - 1, 1e-6 * i) for i in range(rows)]
    assert format_log(log) == "\n".join([",".join(map(repr, r)) for r in log]) + "\n"


# Log field values whose reprs a renderer could confuse: equal or alike values
# with different reprs, non-finite floats, subnormals, nesting, and strings
# with the separators in them.
LOG_VALUES = st.recursive(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.floats(),
        st.sampled_from([0.0, -0.0, 1, 1.0, True, False, 0, math.nan, math.inf, -math.inf,
                         5e-324, 2.5e-310]),
        st.text(alphabet="ab,'\"\\\n ", max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)


@st.composite
def event_logs(draw):
    # Rows draw some fields from a small pool of objects, so the same object
    # recurs across rows as one broadcast's time and one packet size's joules
    # do.  A broadcast's receptions share every field but the receiver (field
    # 1) as the very same objects; 7-field rows need not be rx rows.
    shared = st.sampled_from(draw(st.lists(LOG_VALUES, min_size=1, max_size=6)))
    field = shared | LOG_VALUES
    broadcast = st.builds(lambda t, tail, receivers: [(t, r, *tail) for r in receivers],
                          shared, st.tuples(st.just("rx") | field, field, field, field, shared),
                          st.lists(LOG_VALUES, min_size=1, max_size=4))
    other_row = st.lists(field, max_size=11).map(tuple)
    groups = draw(st.lists(broadcast | other_row.map(lambda row: [row]), max_size=20))
    return [row for group in groups for row in group]


@given(event_logs())
def test_format_log_renders_each_row_as_its_reprs(log):
    assert format_log(log) == reference_format_log(log)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (1.0, 1), (1, True), (160, 160.0)])
@pytest.mark.parametrize("at_chunk_edge", [False, True])
def test_format_log_keeps_alike_values_apart(first, second, at_chunk_edge):
    # In turn in the time and in each of the five fields after the receiver:
    # two 7-field rows whose other fields are the very same objects.
    base = (0.5, 1, "rx", "hello", 160, 2, 1e-06)
    pad = [(0.25, 0, "tx")] * (simulator._FORMAT_CHUNK_ROWS - 1 if at_chunk_edge else 0)
    for field in (0, 2, 3, 4, 5, 6):
        rows = [base[:field] + (value,) + base[field + 1:] for value in (first, second)]
        text = format_log(pad + rows)
        assert text == reference_format_log(pad + rows)
        first_line, second_line = text.splitlines()[-2:]
        assert first_line.split(",")[field] == repr(first), field
        assert second_line.split(",")[field] == repr(second), field


def heavy_depletion_cfg(protocol="qgrp", energy="initial_j = 0.05\n"):
    # Dense little field and tiny batteries so several nodes die mid-run.
    return parse_config(
        "[topology]\nn = 20\nseed = 11\nfield_width = 400.0\nfield_height = 400.0\n"
        f"[protocol]\nname = {protocol}\n"
        f"[energy]\n{energy}"
        "[sim]\nduration_s = 8.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 400000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 300000.0\nstart_s = 1.5\n"
    )


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_energy_conservation_and_dead_node_silence(protocol):
    cfg = heavy_depletion_cfg(protocol)
    result = run_scenario(cfg)
    log = result.event_log
    spent = {}
    death_index = {}
    for i, row in enumerate(log):
        if row[2] == "tx":
            spent[row[1]] = spent.get(row[1], 0.0) + row[7]
        elif row[2] == "rx":
            spent[row[1]] = spent.get(row[1], 0.0) + row[6]
        elif row[2] == "death":
            death_index[row[1]] = i
    assert death_index, "expected at least one depleted node in this scenario"
    for node in result.engine.topology.nodes:
        total = spent.get(node.id, 0.0)
        assert abs((node.energy.initial - node.energy.residual) - total) <= 1e-9
        if node.id in death_index:
            assert node.energy.residual == 0.0
    for node_id, idx in death_index.items():
        after = [r for r in log[idx + 1:] if r[1] == node_id and r[2] in ("tx", "rx")]
        assert after == []


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(["qgrp", "aodv"]), n=st.integers(2, 30),
       seed=st.integers(0, 10**6), battery_j=st.none() | st.floats(0.02, 0.05),
       free_amplifier=st.booleans(), flows=st.integers(0, 3))
def test_each_node_spends_what_its_log_rows_charge(protocol, n, seed, battery_j,
                                                   free_amplifier, flows):
    # A free amplifier lets receivers die on a reception too (see RX_DEATHS).
    energy = "[energy]\n"
    if battery_j is not None:
        energy += f"initial_j = {battery_j!r}\n"
    if free_amplifier:
        energy += "e_amp_j_per_bit_m2 = 0.0\n"
    cfg = parse_config(
        f"[topology]\nn = {n}\nseed = {seed}\nfield_width = 400.0\nfield_height = 400.0\n"
        f"[protocol]\nname = {protocol}\n{energy}"
        "[sim]\nduration_s = 4.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        + "".join(f"[flow:{i}]\nrate_bps = 300000.0\nstart_s = 1.0\n"
                  for i in range(1, flows + 1))
    )
    result = run_scenario(cfg)
    initial = {}
    spent = {}
    for row in parse_log(format_log(result.event_log)):
        if row[2] == "node":
            initial[row[1]] = row[5]
        elif row[2] == "tx":
            spent[row[1]] = spent.get(row[1], 0.0) + row[7]
        elif row[2] == "rx":
            spent[row[1]] = spent.get(row[1], 0.0) + row[6]
    assert sorted(initial) == sorted(node.id for node in result.engine.topology.nodes)
    for node in result.engine.topology.nodes:
        assert abs(initial[node.id] - node.energy.residual - spent.get(node.id, 0.0)) <= 1e-9


# Free amplifier energy: a transmission costs what a reception does, so some
# receivers die on a reception (in heavy_depletion_cfg every death is a sender's).
RX_DEATHS = "initial_j = 0.02\ne_amp_j_per_bit_m2 = 0.0\n"


@pytest.mark.parametrize("energy, receivers_die", [("initial_j = 0.05\n", False),
                                                    (RX_DEATHS, True)],
                         ids=["senders_die", "receivers_die"])
@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_rx_energy_is_computed_once_per_packet_size(monkeypatch, protocol, energy,
                                                    receivers_die):
    calls = []

    def counting_rx_energy(bits, e_elec):
        calls.append(bits)
        return radio_rx_energy(bits, e_elec)

    last_residual = {}
    debit = Engine._debit

    def recording_debit(self, node, amount):
        last_residual[node.id] = node.energy.residual
        return debit(self, node, amount)

    monkeypatch.setattr(simulator, "radio_rx_energy", counting_rx_energy)
    monkeypatch.setattr(Engine, "_debit", recording_debit)
    cfg = heavy_depletion_cfg(protocol, energy)
    log = run_scenario(cfg).event_log
    rx_bits = {row[4] for row in log if row[2] == "rx"}
    assert len(rx_bits) > 1
    assert sorted(calls) == sorted(rx_bits)
    dying = 0
    for row, following in zip(log, log[1:] + [()]):
        if row[2] != "rx":
            continue
        if following == (row[0], row[1], "death"):
            # A node's debits end with the one that kills it.
            dying += 1
            assert row[6] == last_residual[row[1]]
            assert row[6] <= radio_rx_energy(row[4], cfg.energy.e_elec)
        else:
            assert row[6] == radio_rx_energy(row[4], cfg.energy.e_elec)
    assert bool(dying) == receivers_die


def test_dispatch_counts_hold_when_receivers_die(monkeypatch):
    # The benchmark's tracer counts _on_arrival and on_hello calls; its own test has no
    # deaths.  Here receivers die on hellos, and dead ones are still dispatched to.
    hellos = []
    on_hello = QgrpNode.on_hello
    monkeypatch.setattr(QgrpNode, "on_hello", lambda self, sender, record:
                        hellos.append(self.id) or on_hello(self, sender, record))
    arrivals = []
    on_arrival = Engine._on_arrival
    monkeypatch.setattr(Engine, "_on_arrival",
                        lambda self, *args: arrivals.append(args[0]) or on_arrival(self, *args))
    cfg = hello_death_config()
    engine = Engine(cfg)
    recorder = RecordingHeapq(engine)
    monkeypatch.setattr(simulator, "heapq", recorder)
    log = list(engine.run().event_log)
    heard = [row for row, following in zip(log, log[1:] + [()])
             if row[2:4] == ("rx", "hello") and following != (row[0], row[1], "death")]
    assert len(heard) < sum(row[2:4] == ("rx", "hello") for row in log)
    assert len(hellos) == len(heard)
    dispatched = sum((len(e) == 2 or e[2] == simulator._ARRIVAL) and e[0] <= cfg.sim.duration
                     for e in recorder.popped)
    assert len(arrivals) == dispatched > sum(row[2] == "rx" for row in log)


@pytest.mark.parametrize("energy", ["initial_j = 0.05\n", RX_DEATHS],
                         ids=["senders_die", "receivers_die"])
@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_log_round_trip_with_deaths(protocol, energy):
    log = run_scenario(heavy_depletion_cfg(protocol, energy)).event_log
    assert "death" in {row[2] for row in log}
    assert parse_log(format_log(log)) == log


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_engine_logs_delivery_right_after_the_sinks_reception(protocol):
    cfg = heavy_depletion_cfg(protocol)
    log = run_scenario(cfg).event_log
    sink = next(row[1] for row in log if row[2] == "node" and row[6] == "sink")
    delivered = [i for i, row in enumerate(log) if row[2] == "deliver"]
    assert delivered
    for i in delivered:
        deliver, rx = log[i], log[i - 1]
        assert deliver[1] == sink
        assert rx[:5] == (deliver[0], sink, "rx", "data", cfg.pkt.data_header + deliver[6])
    for row, following in zip(log, log[1:]):
        if row[2] == "rx" and row[1] == sink and row[3] == "data":
            assert following[2] in ("deliver", "death")


@pytest.mark.parametrize("killed", [False, True])
@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_sink_reception_never_reaches_the_protocol(protocol, killed):
    engine = Engine(heavy_depletion_cfg(protocol))
    sink = engine.nodes[engine.sink_id]
    sink.protocol.on_packet = lambda *args: pytest.fail("the sink's protocol saw its data")
    bits = 2160
    if killed:
        sink.energy.residual = 0.5 * radio_rx_energy(bits, engine.cfg.energy.e_elec)
    sender = next(node.id for node in engine.nodes if node.id != sink.id)
    engine._on_arrival(sink.id, sender, Data(1, 2000, 0.5, 4), bits, 2.0)
    rx, *rest = engine.event_log
    assert rx[:6] == (2.0, sink.id, "rx", "data", bits, sender)
    if killed:
        assert rest == [(2.0, sink.id, "death"), (2.0, sink.id, "drop", 1, 4, "dead_receiver")]
    else:
        assert rest == [(2.0, sink.id, "deliver", 1, 4, 0.5, 2000)]


def test_queue_limit_drops_excess_data():
    cfg = parse_config(
        "[topology]\nn = 2\nseed = 8\nfield_width = 160.0\nfield_height = 10.0\n"
        "[mac]\nqueue_limit = 5\n"
        "[sim]\nduration_s = 3.0\nwarm_up_s = 0.5\nrepetitions = 1\n"
        # Admittable requirement, but beyond the per-hop service rate once
        # contention delay is added to serialization.
        "[flow:1]\nrate_bps = 1200000.0\nstart_s = 0.5\n"
    )
    result = run_scenario(cfg)
    reasons = {row[5] for row in result.event_log if row[2] == "drop"}
    assert "queue_full" in reasons
    assert result.metrics.pdr < 1.0
