"""Deterministic discrete-event engine.

Topology generation, the abstract channel/MAC (per-transmission loss and
contention delay sampled from the analytical collision model), first-order
radio energy accounting, traffic generation, and event scheduling for both
protocols.  One run is strictly single-threaded; independent runs share no
mutable state.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .actions import Broadcast, StartTimer, Unicast
from .aodv import AodvNode
from .dcf import CollisionTable, DcfParams, build_table, lookup_p_c
from .geometry import Position, distance
from .link_estimation import mean_backoff_slots
from .qgrp import Data, NodeEnergy, QgrpNode

# Event kinds, dispatched in (time, sequence) order.
_ARRIVAL = 0
_TIMER = 1
_EMIT = 2
_FLOW_START = 3
_TX_DONE = 4


@dataclass
class SensorNode:
    """Physical state of one sensor; protocol state hangs off `protocol`."""

    id: int
    position: Position
    energy: NodeEnergy
    alive: bool = True
    protocol: object = None
    pending_tx: int = 0
    next_free: float = 0.0
    busy: dict = field(default_factory=dict)
    neighbor_ids: tuple[int, ...] = ()
    cs_nodes: tuple = ()


@dataclass(frozen=True)
class Topology:
    nodes: list[SensorNode]
    sink_id: int
    field_size: tuple[float, float]
    tx_range: float
    rng_seed: int


@dataclass(frozen=True)
class Flow:
    """One constant-rate traffic source; source=None picks a random sensor per run."""

    flow_id: int
    rate: float
    packet_bits: int
    start: float
    stop: float
    required_bandwidth: float
    source: int | None = None

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"flow rate must be positive, got {self.rate}")
        if self.packet_bits <= 0:
            raise ValueError(f"packet_bits must be positive, got {self.packet_bits}")

    @property
    def interval(self) -> float:
        return self.packet_bits / self.rate


def generate_topology(
    n: int,
    field_size: tuple[float, float] = (1000.0, 1000.0),
    tx_range: float = 250.0,
    seed: int = 0,
    initial_energy: float = 40.0,
) -> Topology:
    """Scatter n sensors uniformly and pick the sink uniformly among them.

    Identical arguments give a bit-identical topology.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    rng = random.Random(seed)
    w, h = field_size
    nodes = [
        SensorNode(
            i,
            Position(rng.uniform(0.0, w), rng.uniform(0.0, h)),
            NodeEnergy(initial_energy, initial_energy),
        )
        for i in range(n)
    ]
    sink_id = rng.randrange(n)
    return Topology(nodes, sink_id, (float(w), float(h)), float(tx_range), seed)


def radio_rx_energy(bits: int, e_elec: float) -> float:
    return e_elec * bits


@dataclass(frozen=True, slots=True)
class LinkCost:
    """What one transmission attempt over a link costs.

    Collision probability, expected contention airtime, share of airtime
    lost to backoff, and first-order radio transmit energy per bit.
    """

    p_c: float
    contention_s: float
    backoff_overhead: float
    tx_j_per_bit: float


def build_link_cost(p_c: float, dist: float, params: DcfParams, e_elec: float,
                    e_amp: float) -> LinkCost:
    """Cost of a link of length dist; p_c = 1 is rejected, the retry series diverges."""
    backoff_s = mean_backoff_slots(p_c, params) * params.virtual_slot
    return LinkCost(
        p_c,
        backoff_s / (1.0 - p_c),
        backoff_s / (params.payload_duration + backoff_s),
        e_elec + e_amp * dist * dist,
    )


class _ProtocolEnv:
    """Node-facing view of the engine: positions, link costs, and callbacks."""

    def __init__(self, engine):
        self._engine = engine
        cfg = engine.cfg
        self.sink_id = engine.topology.sink_id
        self.positions = {node.id: node.position for node in engine.topology.nodes}
        self.link_cost = engine.link_cost
        self.b_no = cfg.mac.b_no
        self.weights = cfg.weights
        self.initial_energy = cfg.energy.initial
        self.pkt_bits = {
            "hello": cfg.pkt.hello,
            "rreq": cfg.pkt.rreq,
            "rrep": cfg.pkt.rrep,
            "notify": cfg.pkt.notify,
            "data_header": cfg.pkt.data_header,
        }
        self.hello_interval = cfg.hello.interval
        self.hello_jitter = cfg.hello.jitter
        self.hello_expiry = cfg.hello.expiry_intervals * cfg.hello.interval
        self.rrep_wait = cfg.retry.rrep_wait
        self.max_retries = cfg.retry.max_retries
        self.retry_backoff = cfg.retry.backoff
        self.buffer_capacity = cfg.retry.buffer_capacity
        self.source_policy = cfg.retry.policy
        self.reservation_ttl = cfg.retry.reservation_ttl
        self.aodv_rreq_bits = cfg.aodv.rreq_bits
        self.aodv_rrep_bits = cfg.aodv.rrep_bits
        self.aodv_route_timeout = cfg.aodv.active_route_timeout
        self.aodv_ttl = cfg.aodv.ttl
        self.rng = engine.rng

    def log(self, now, node_id, kind, *detail):
        self._engine.log_row(now, node_id, kind, *detail)

    def idle_fraction(self, node_id, now):
        return self._engine.idle_fraction(node_id, now)

    def residual(self, node_id):
        return self._engine.nodes[node_id].energy.residual

    def alive(self, node_id):
        return self._engine.nodes[node_id].alive


class Engine:
    """One seeded simulation run for one protocol."""

    def __init__(self, cfg, seed: int | None = None, protocol: str | None = None,
                 table: CollisionTable | None = None):
        self.cfg = cfg
        self.seed = cfg.topology.seed if seed is None else seed
        self.protocol = cfg.protocol if protocol is None else protocol
        if self.protocol not in ("qgrp", "aodv"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        self.topology = generate_topology(
            cfg.topology.n, cfg.topology.field, cfg.topology.tx_range, self.seed,
            cfg.energy.initial,
        )
        self.nodes = {node.id: node for node in self.topology.nodes}
        self.table = table if table is not None else build_table(
            cfg.dcf.table_densities, cfg.dcf.table_distances, cfg.dcf.params,
            reduced=cfg.dcf.reduced,
        )
        for density, row in zip(self.table.densities, self.table.p_c_grid):
            for dist, p_c in zip(self.table.distances, row):
                if p_c >= 1.0:
                    raise ValueError(f"collision table cell (density {density!r}, distance "
                                     f"{dist!r}) has p_c {p_c!r}; it must be below 1")
        w, h = cfg.topology.field
        self.density = cfg.topology.n / (w * h) * 1e6
        self.rng = random.Random(self.seed + 1_000_003)
        self._setup_rng = random.Random(self.seed + 2_000_003)
        self.now = 0.0
        self.event_log: list[tuple] = []
        self._heap: list = []
        self._seq = 0
        # Filled lazily: building every link's record up front triples the set-up time.
        self._link_cache: dict[tuple[int, int], LinkCost] = {}
        self._broadcast_cost = self._cost_at(self.topology.tx_range)
        self._precompute_adjacency()
        self.env = _ProtocolEnv(self)
        node_cls = QgrpNode if self.protocol == "qgrp" else AodvNode
        for node in self.topology.nodes:
            node.protocol = node_cls(node.id, self.env)
        self.flows = self._assign_sources(cfg.flows)

    # ----- setup -----

    def _precompute_adjacency(self):
        nodes = self.topology.nodes
        tx = self.topology.tx_range
        cs = self.cfg.dcf.params.carrier_sense_radius
        neigh = [[] for _ in nodes]
        cs_nodes = [[node] for node in nodes]  # a node always senses itself
        # distance() is symmetric to the last bit, so each pair is measured once.
        for i, node in enumerate(nodes):
            for j in range(i + 1, len(nodes)):
                other = nodes[j]
                d = distance(node.position, other.position)
                if d <= cs:
                    cs_nodes[i].append(other)
                    cs_nodes[j].append(node)
                if d <= tx:
                    neigh[i].append(other.id)
                    neigh[j].append(node.id)
        for node, ids, sensed in zip(nodes, neigh, cs_nodes):
            node.neighbor_ids = tuple(sorted(ids))
            node.cs_nodes = tuple(sorted(sensed, key=lambda n: n.id))

    def _assign_sources(self, flows) -> list[Flow]:
        candidates = sorted(i for i in self.nodes if i != self.topology.sink_id)
        assigned = []
        for flow in flows:
            if flow.source is None:
                pool = [c for c in candidates if c not in {f.source for f in assigned}]
                src = self._setup_rng.choice(pool or candidates)
                assigned.append(Flow(flow.flow_id, flow.rate, flow.packet_bits, flow.start,
                                     flow.stop, flow.required_bandwidth, src))
            else:
                if flow.source not in self.nodes:
                    raise ValueError(f"flow {flow.flow_id}: unknown source {flow.source}")
                assigned.append(flow)
        return assigned

    # ----- utilities -----

    def log_row(self, now, node_id, kind, *detail):
        self.event_log.append((now, node_id, kind) + detail)

    def _schedule(self, time, kind, *payload):
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def idle_fraction(self, node_id: int, now: float) -> float:
        window = self.cfg.hello.idle_window
        busy = self.nodes[node_id].busy.get(int(now / window) - 1, 0.0)
        return max(0.0, 1.0 - busy / window)

    def _cost_at(self, dist: float) -> LinkCost:
        energy = self.cfg.energy
        p_c = lookup_p_c(self.table, self.density, dist)
        return build_link_cost(p_c, dist, self.cfg.dcf.params, energy.e_elec, energy.e_amp)

    def link_cost(self, u: int, v: int) -> LinkCost:
        """Cost of the link from u to v, cached per directed pair."""
        cost = self._link_cache.get((u, v))
        if cost is None:
            d = distance(self.nodes[u].position, self.nodes[v].position)
            cost = self._link_cache[u, v] = self._cost_at(d)
        return cost

    def _debit(self, node: SensorNode, amount: float) -> tuple[float, bool]:
        """Consume energy, clamped at zero.  Returns (consumed, died_just_now).

        The caller logs the death row after the event that caused it, so the
        causing tx/rx record precedes the death record.
        """
        if not node.alive:
            return 0.0, False
        consumed = min(amount, node.energy.residual)
        node.energy.residual -= consumed
        if node.energy.residual <= 0.0:
            node.energy.residual = 0.0
            node.alive = False
            return consumed, True
        return consumed, False

    def _charge_busy(self, sender: SensorNode, start: float, duration: float):
        """Spread airtime over the 1-second accounting buckets of every node in carrier sense."""
        window = self.cfg.hello.idle_window
        segments = []
        t = start
        remaining = duration
        while remaining > 0.0:
            bucket = int(t / window)
            ceiling = (bucket + 1) * window
            seg = min(remaining, ceiling - t)
            segments.append((bucket, seg))
            t += seg
            remaining -= seg
        for other in sender.cs_nodes:
            busy = other.busy
            for bucket, seg in segments:
                busy[bucket] = busy.get(bucket, 0.0) + seg

    # ----- channel -----

    def _pkt_kind(self, pkt) -> str:
        if isinstance(pkt, Data):
            return "data"
        return type(pkt).__name__.lower()

    def _transmit_unicast(self, sender: SensorNode, to_id: int, pkt, bits: int, now: float):
        if not sender.alive:
            return
        if sender.pending_tx >= self.cfg.mac.queue_limit:
            if isinstance(pkt, Data):
                self.log_row(now, sender.id, "drop", pkt.flow_id, pkt.sequence, "queue_full")
            return
        cost = self.link_cost(sender.id, to_id)
        unit = bits / self.cfg.mac.b_no + cost.contention_s
        start = max(now, sender.next_free)
        max_attempts = 1 + self.cfg.mac.retries
        attempts = 0
        delivered = False
        spent = 0.0
        died = False
        while attempts < max_attempts and sender.alive:
            attempts += 1
            consumed, died = self._debit(sender, cost.tx_j_per_bit * bits)
            spent += consumed
            if self.rng.random() >= cost.p_c:
                delivered = True
                break
        end = start + attempts * unit
        sender.pending_tx += 1
        sender.next_free = end
        self._charge_busy(sender, start, attempts * unit)
        self._schedule(end, _TX_DONE, sender.id)
        flow_id, seq = (pkt.flow_id, pkt.sequence) if isinstance(pkt, Data) else (-1, -1)
        self.log_row(
            now, sender.id, "tx", self._pkt_kind(pkt), bits, to_id, attempts, spent,
            attempts * unit, flow_id, seq,
        )
        if died:
            self.log_row(now, sender.id, "death")
        if delivered:
            self._schedule(end, _ARRIVAL, to_id, sender.id, pkt, bits)
        elif isinstance(pkt, Data):
            self.log_row(now, sender.id, "drop", pkt.flow_id, pkt.sequence, "mac_loss")

    def _transmit_broadcast(self, sender: SensorNode, pkt, bits: int, now: float):
        if not sender.alive:
            return
        if sender.pending_tx >= self.cfg.mac.queue_limit:
            return
        cost = self._broadcast_cost
        unit = bits / self.cfg.mac.b_no + cost.contention_s
        start = max(now, sender.next_free)
        end = start + unit
        spent, died = self._debit(sender, cost.tx_j_per_bit * bits)
        sender.pending_tx += 1
        sender.next_free = end
        self._charge_busy(sender, start, unit)
        self._schedule(end, _TX_DONE, sender.id)
        self.log_row(now, sender.id, "tx", self._pkt_kind(pkt), bits, -1, 1, spent, unit, -1, -1)
        if died:
            self.log_row(now, sender.id, "death")
        for nb_id in sender.neighbor_ids:
            if self.rng.random() >= self.link_cost(sender.id, nb_id).p_c:
                self._schedule(end, _ARRIVAL, nb_id, sender.id, pkt, bits)

    # ----- event handlers -----

    def _apply(self, node: SensorNode, effects: list, now: float):
        for effect in effects:
            if isinstance(effect, Unicast):
                self._transmit_unicast(node, effect.to, effect.packet, effect.bits, now)
            elif isinstance(effect, Broadcast):
                self._transmit_broadcast(node, effect.packet, effect.bits, now)
            elif isinstance(effect, StartTimer):
                self._schedule(now + effect.delay, _TIMER, node.id, effect.kind, effect.payload)
            else:
                raise TypeError(f"unknown effect {effect!r}")

    def _on_arrival(self, to_id: int, from_id: int, pkt, bits: int, now: float):
        node = self.nodes[to_id]
        if not node.alive:
            if isinstance(pkt, Data):
                self.log_row(now, to_id, "drop", pkt.flow_id, pkt.sequence, "dead_receiver")
            return
        consumed, died = self._debit(node, radio_rx_energy(bits, self.cfg.energy.e_elec))
        self.log_row(now, to_id, "rx", self._pkt_kind(pkt), bits, from_id, consumed)
        if died:
            self.log_row(now, to_id, "death")
            if isinstance(pkt, Data):
                self.log_row(now, to_id, "drop", pkt.flow_id, pkt.sequence, "dead_receiver")
            return
        self._apply(node, node.protocol.on_packet(pkt, from_id, now), now)

    def _on_emit(self, flow_index: int, seq: int, now: float):
        flow = self.flows[flow_index]
        node = self.nodes[flow.source]
        if not node.alive:
            return
        self.log_row(now, flow.source, "origin", flow.flow_id, seq)
        effects = node.protocol.on_data_emit(flow.flow_id, flow.packet_bits, seq, now)
        self._apply(node, effects, now)
        nxt = now + flow.interval
        if nxt < flow.stop - 1e-12:
            self._schedule(nxt, _EMIT, flow_index, seq + 1)

    def _on_flow_start(self, flow_index: int, now: float):
        flow = self.flows[flow_index]
        node = self.nodes[flow.source]
        if not node.alive:
            return
        if self.protocol == "qgrp":
            effects = node.protocol.start_flow(flow.flow_id, flow.required_bandwidth, now)
            self._apply(node, effects, now)

    # ----- run -----

    def run(self):
        cfg = self.cfg
        for node in self.topology.nodes:
            role = "sink" if node.id == self.topology.sink_id else "sensor"
            self.log_row(0.0, node.id, "node", node.position.x, node.position.y,
                         node.energy.initial, role)
        for flow in self.flows:
            self.log_row(0.0, flow.source, "flow", flow.flow_id, flow.rate, flow.packet_bits,
                         flow.start, flow.stop, flow.required_bandwidth)
        for node in self.topology.nodes:
            self._apply(node, node.protocol.start(0.0), 0.0)
        for i, flow in enumerate(self.flows):
            self._schedule(flow.start, _FLOW_START, i)
            self._schedule(flow.start, _EMIT, i, 0)

        duration = cfg.sim.duration
        heap = self._heap
        while heap:
            time, _, kind, payload = heapq.heappop(heap)
            if time > duration:
                break
            if time < self.now:
                raise RuntimeError(f"event at {time!r} scheduled before its cause at {self.now!r}")
            self.now = time
            if kind == _ARRIVAL:
                self._on_arrival(payload[0], payload[1], payload[2], payload[3], time)
            elif kind == _TIMER:
                node = self.nodes[payload[0]]
                if node.alive:
                    self._apply(node, node.protocol.on_timer(payload[1], payload[2], time), time)
            elif kind == _EMIT:
                self._on_emit(payload[0], payload[1], time)
            elif kind == _FLOW_START:
                self._on_flow_start(payload[0], time)
            elif kind == _TX_DONE:
                self.nodes[payload[0]].pending_tx -= 1
        return self


@dataclass
class RunResult:
    metrics: object
    event_log: list[tuple]
    engine: Engine


def run_scenario(cfg, seed: int | None = None, protocol: str | None = None,
                 table: CollisionTable | None = None) -> RunResult:
    """Execute one seeded run and compute its metrics from the event log."""
    from .metrics import compute_metrics

    engine = Engine(cfg, seed=seed, protocol=protocol, table=table).run()
    metrics = compute_metrics(engine.event_log, cfg)
    return RunResult(metrics, engine.event_log, engine)


def format_log(event_log: list[tuple]) -> str:
    """Render the event log as newline-delimited comma-joined records."""
    return "\n".join(",".join(repr(v) for v in row) for row in event_log) + "\n"


def parse_log(text: str) -> list[tuple]:
    """Parse a log rendered by format_log back into tuples."""
    import ast

    rows = []
    for line in text.splitlines():
        if not line:
            continue
        rows.append(tuple(ast.literal_eval(f"({line},)")))
    return rows
