"""Deterministic discrete-event engine.

Topology generation, the abstract channel/MAC (per-transmission loss and
contention delay sampled from the analytical collision model), first-order
radio energy accounting, traffic generation, and event scheduling for both
protocols.  The engine logs a data packet's `origin` when its source emits
it and its `deliver` when it reaches the sink; the protocol node routes it
in between, and a hello reception goes straight to the receiver's
`on_hello`.  One run is strictly single-threaded; independent runs share
no mutable state.

Pending events sit in one heap, `Engine._heap`, ordered by (time,
sequence).  A transmission's receptions take one heap entry, with one
sequence number like any other event, and `Engine.run` dispatches the
block's receptions in one loop at the block's time, in neighbour order.
No other event dispatches inside a block: the block is popped and
dispatched whole, and anything a handler schedules gets a later sequence
number.

The event log, `Engine.event_log`, is an `EventLog` (module `eventlog`):
a row tuple per entry, except that consecutive rx rows of one block are
kept as one `RxRun`.  `EventLog.add_rx` joins a row to the last entry
only when their time, packet kind, bits, sender and joules are the very
same objects, which holds for rows of one block alone, since each block's
time is a float of its own.  A receiver that dies on its debit logs its
rx row, then its death row, as plain entries.

A hello block is received whole before its first reception dispatches.
When `run` pops a block whose packet is a `Hello`, `_receive_hellos`
walks its receivers in order: one dead before the block gets nothing;
one that survives its debit joins the current run of receivers, which
becomes one `EventLog.append_rx`, and gets the block's record through
`on_hello`; one that dies on its debit ends the run and logs its rx row,
then its death row, and gets no record.  It is the only code that debits
a hello reception, logs its rows or calls `on_hello`, and `_on_arrival`
returns at once for a hello.  The record is the block's one
`NeighborRecord`, frozen because its survivors share it.  This is exact:
no other event dispatches inside a block, and `on_hello` neither logs,
transmits nor reads energy, so interleaving its calls with the block's
debits gives the same rows and the same floats.  Sharing is exact too:
the record holds the same float objects a record built per reception
would (the hello's residual energy and send time, the block's time), and
a receiver that loses a later hello keeps the record of the last block
it heard.

Carrier-sense busy time is kept per idle window
(`cfg.hello.idle_window`); `window_of` alone maps a time to its
window.  `_charge_busy` appends each transmission's airtime, split at
window edges, to its window's two lists, sender ids and segments, in
charge order.  A node's total for a window is summed only when
`idle_fraction` reads it, and is then memoised in `node.busy`.  Node i's
carrier-sense set is its `cs_mask`, a bytearray whose byte j is 1 when
node j lies within the carrier-sense radius; byte i is 1 too.  Set-up
measures each pair once, and `geometry.distance` is symmetric to the last
bit, so node i is charged by sender s exactly when byte s of i's own mask
is set: the total is that node's segments folded left to right from 0.0,
the same sum, in the same order, as adding each segment to every sensing
node at transmission time.  A closed window is final, because every charge
starts at or after the current event time; so a read may ask for a window
as of a past time, such as a hello's send time, and still gets the value
it had then.

The benchmark's tracer (`bench/tracing.py`) counts work from outside, so
the engine keeps to this: every event, each reception of a block among
them, is popped through this module's `heapq.heappop`, and the first field
of every popped entry is its time.  So `run` appends a token `(time, k)`
for reception k >= 1 of a block to `Engine._ready` and pops it at once;
the pop is there only until the tracer counts receptions from blocks.  No
`heapq` function but `heappush` and `heappop` is called; `_on_arrival`
runs once per dispatched reception, which is once per `rx` row while no
receiver is dead, a hello block's included, though it returns at once
for a hello; a protocol's `on_hello` runs once per hello `rx` row of a
receiver that survives it, though the block's survivors share one
record; and every name the tracer wraps keeps its name.
"""

from __future__ import annotations

import heapq
import random
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import compress, repeat
from operator import add

from .actions import Broadcast, Data, StartTimer, Unicast
from .aodv import AodvNode, AodvRrep, AodvRreq
# lookup_p_c stays importable from here, where the benchmark's tracer looks for it; the
# engine itself reads p_c in Engine._p_c_at, on the row its density snaps to.
from .dcf import (REFERENCE_DENSITIES, REFERENCE_DISTANCES, CollisionTable, DcfParams,
                  build_table, density_row, interpolate_p_c, lookup_p_c)  # noqa: F401
from .eventlog import EventLog, RxRun, log_entries
from .geometry import Position, distance
from .link_estimation import NeighborRecord, mean_backoff_slots
from .params import POSITIVE, check_params, param
from .qgrp import AdmissionNotify, Hello, QgrpNode, Rrep, Rreq

# Event kinds.  An event is the flat record (time, sequence, kind, *payload),
# dispatched in (time, sequence) order.  An _ARRIVAL's payload is (receivers,
# sender id, packet, bits): a block of receptions, dispatched in receivers order.
_ARRIVAL = 0
_TIMER = 1
_EMIT = 2
_FLOW_START = 3
_TX_DONE = 4

# Packet kind written to the log for each packet class.
_PKT_KINDS = {cls: cls.__name__.lower()
              for cls in (Hello, Rreq, Rrep, AdmissionNotify, Data, AodvRreq, AodvRrep)}

_NODE_CLASSES = {"qgrp": QgrpNode, "aodv": AodvNode}


@dataclass(slots=True)
class NodeEnergy:
    """Residual and initial battery charge of one sensor, in joules."""

    residual: float
    initial: float

    def __post_init__(self):
        if self.initial <= 0:
            raise ValueError(f"initial energy must be positive, got {self.initial}")
        if not 0.0 <= self.residual <= self.initial:
            raise ValueError(f"residual must lie in [0, initial], got {self.residual}")


@dataclass(slots=True)
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
    cs_mask: bytearray = field(default_factory=bytearray)


@dataclass(frozen=True)
class Topology:
    nodes: list[SensorNode]
    sink_id: int


@dataclass(frozen=True)
class Flow:
    """One constant-rate traffic source; source=None picks a random sensor per run."""

    flow_id: int
    rate: float = param(key="rate_bps", check=POSITIVE)
    packet_bits: int = param(check=POSITIVE)
    start: float = param(key="start_s")
    stop: float = param(key="stop_s")
    required_bandwidth: float = param(key="required_bps")
    source: int | None = None

    def __post_init__(self):
        check_params(self)

    @property
    def interval(self) -> float:
        return self.packet_bits / self.rate


def generate_topology(n: int, field_size: tuple[float, float], seed: int,
                      initial_energy: float) -> Topology:
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
    return Topology(nodes, sink_id)


def window_of(t: float, window: float) -> int:
    """Index k of the idle window [k * window, (k + 1) * window) that holds time t."""
    k = int(t / window)  # t / window may round an edge k * window down to just below k
    return k + 1 if (k + 1) * window <= t else k


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
    """Node-facing view of the engine: positions, link costs, config sections and callbacks."""

    def __init__(self, engine):
        self._nodes = engine.nodes
        cfg = engine.cfg
        self.sink_id = engine.sink_id
        self.positions = [node.position for node in engine.nodes]
        self.link_cost = engine.link_cost
        self.log = engine.log_row
        self.idle_fraction = engine.idle_fraction
        self.weights, self.mac, self.energy = cfg.weights, cfg.mac, cfg.energy
        self.hello, self.retry, self.pkt, self.aodv = cfg.hello, cfg.retry, cfg.pkt, cfg.aodv
        self.rng = engine.rng

    def residual(self, node_id):
        return self._nodes[node_id].energy.residual

    def alive(self, node_id):
        return self._nodes[node_id].alive


class Engine:
    """One seeded simulation run for one protocol.

    `nodes` is `topology.nodes`, indexed by node id: node i is `nodes[i]`.
    """

    def __init__(self, cfg, seed: int | None = None, table: CollisionTable | None = None):
        self.cfg = cfg
        self.seed = cfg.topology.seed if seed is None else seed
        node_cls = _NODE_CLASSES.get(cfg.protocol)
        if node_cls is None:
            raise ValueError(f"unknown protocol {cfg.protocol!r}")
        topo = cfg.topology
        self.topology = generate_topology(
            topo.n, (topo.field_width, topo.field_height), self.seed, cfg.energy.initial)
        self.sink_id = self.topology.sink_id
        self.nodes = self.topology.nodes
        self.table = table if table is not None else build_table(
            REFERENCE_DENSITIES, REFERENCE_DISTANCES, cfg.dcf)
        for density, row in zip(self.table.densities, self.table.p_c_grid):
            for dist, p_c in zip(self.table.distances, row):
                if p_c >= 1.0:
                    raise ValueError(f"collision table cell (density {density!r}, distance "
                                     f"{dist!r}) has p_c {p_c!r}; it must be below 1")
        self.density = topo.n / (topo.field_width * topo.field_height) * 1e6
        self.rng = random.Random(self.seed + 1_000_003)
        self._setup_rng = random.Random(self.seed + 2_000_003)
        self.now = 0.0
        self.event_log = EventLog()
        self._heap: list = []
        self._ready: list = []  # the token (time, k) of reception k >= 1 of a block
        self._seq = 0
        # Filled lazily: building every link's record up front triples the set-up time.
        self._link_cache: dict[tuple[int, int], LinkCost] = {}
        # The density is fixed per engine, so every link reads one row of the table.
        self._p_c_row = density_row(self.table, self.density)
        self._broadcast_cost = self._cost_at(topo.tx_range)
        # Per sender, the p_c of each link in neighbor_ids order; filled on the sender's
        # first broadcast, so each undirected broadcast link is looked up once.
        self._broadcast_p_c: dict[int, tuple[float, ...]] = {}
        # Receive energy per packet size, computed once per size.
        self._rx_energy: dict[int, float] = {}
        # Carrier-sense airtime by idle window: bucket -> ([sender id, ...], [segment, ...]),
        # in charge order.  No charge may reach a bucket up to _read_through, the last read.
        self._charges: defaultdict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
        self._read_through = -1
        self._precompute_adjacency()
        self.env = _ProtocolEnv(self)
        for node in self.nodes:
            node.protocol = node_cls(node.id, self.env)
        self.flows = self._assign_sources(cfg.flows)

    # ----- setup -----

    def _precompute_adjacency(self):
        nodes = self.nodes
        tx = self.cfg.topology.tx_range
        cs = self.cfg.dcf.carrier_sense_radius
        ids = [node.id for node in nodes]
        positions = [node.position for node in nodes]
        neigh = [[] for _ in nodes]
        masks = [bytearray(len(nodes)) for _ in nodes]
        # Node ids index nodes, and rows fill in id order, so every list comes out sorted.
        # The ids are the nodes' own objects: a range would make a new int above 256 for
        # every pair, and the neighbour tuples would keep each one alive.
        # distance is symmetric to the last bit, so each pair is measured once.
        for i, p in zip(ids, positions):
            mask_i = masks[i]
            neigh_i = neigh[i]
            mask_i[i] = 1  # a node always senses itself
            k = i + 1
            for j, d in zip(ids[k:], map(distance, positions[k:], repeat(p))):
                if d <= cs:
                    mask_i[j] = 1
                    masks[j][i] = 1
                if d <= tx:
                    neigh_i.append(j)
                    neigh[j].append(i)
        for node, near, mask in zip(nodes, neigh, masks):
            node.neighbor_ids = tuple(near)
            node.cs_mask = mask

    def _assign_sources(self, flows) -> list[Flow]:
        n = len(self.nodes)
        candidates = [i for i in range(n) if i != self.sink_id]
        assigned = []
        for flow in flows:
            if flow.source is None:
                taken = {f.source for f in assigned}
                pool = [c for c in candidates if c not in taken]
                src = self._setup_rng.choice(pool or candidates)
                assigned.append(replace(flow, source=src))
            else:
                if not 0 <= flow.source < n:
                    raise ValueError(f"flow {flow.flow_id}: unknown source {flow.source}")
                assigned.append(flow)
        return assigned

    # ----- utilities -----

    def log_row(self, now, node_id, kind, *detail):
        self.event_log.append((now, node_id, kind) + detail)

    def _schedule(self, time, kind, *payload):
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, *payload))

    def _schedule_receptions(self, time, receivers, sender_id, pkt, bits):
        """One heap entry for the receptions of one transmission, in receivers order."""
        self._schedule(time, _ARRIVAL, receivers, sender_id, pkt, bits)

    def idle_fraction(self, node_id: int, now: float) -> float:
        """Idle share of node_id's last complete idle window before now.

        now may be a past time, such as a hello's send time: a closed window is
        final (module docstring).  The node's busy time in the window is settled
        on its first read and memoised in node.busy.
        """
        window = self.cfg.hello.idle_window
        bucket = window_of(now, window) - 1
        memo = self.nodes[node_id].busy
        busy = memo.get(bucket)
        if busy is None:
            if bucket > self._read_through:
                self._read_through = bucket
            busy = memo[bucket] = self._settle_busy(node_id, bucket)
        return max(0.0, 1.0 - busy / window)

    def _settle_busy(self, node_id: int, bucket: int) -> float:
        """node_id's busy time in a closed bucket: the segments its cs_mask senses, in order.

        The fold starts from 0.0, so the total is bit-identical to charging
        every node at transmission time (module docstring).
        """
        charges = self._charges.get(bucket)
        if charges is None:
            return 0.0
        senders, segs = charges
        sensed = self.nodes[node_id].cs_mask.__getitem__
        return reduce(add, compress(segs, map(sensed, senders)), 0.0)

    def _p_c_at(self, dist: float) -> float:
        """The p_c of a link of length dist, on the table row of the run's density."""
        return interpolate_p_c(self._p_c_row, self.table.distances, dist)

    def _cost_at(self, dist: float) -> LinkCost:
        energy = self.cfg.energy
        return build_link_cost(self._p_c_at(dist), dist, self.cfg.dcf, energy.e_elec, energy.e_amp)

    def _neighbor_p_c(self, sender: SensorNode) -> tuple[float, ...]:
        """The p_c of each link from sender, in neighbor_ids order.

        A neighbour whose own tuple exists already gives its entry for sender,
        so each undirected link is looked up once.  That is exact:
        neighbor_ids are symmetric, and distance() is symmetric to the last bit.
        """
        known = self._broadcast_p_c
        p_cs = known.get(sender.id)
        if p_cs is None:
            nodes = self.nodes
            sender_id = sender.id
            out = []
            for nb_id in sender.neighbor_ids:
                reverse = known.get(nb_id)
                if reverse is None:
                    out.append(self._p_c_at(distance(sender.position, nodes[nb_id].position)))
                else:
                    out.append(reverse[bisect_left(nodes[nb_id].neighbor_ids, sender_id)])
            p_cs = known[sender_id] = tuple(out)
        return p_cs

    def link_cost(self, u: int, v: int) -> LinkCost:
        """Cost of the link from u to v, cached per directed pair."""
        cost = self._link_cache.get((u, v))
        if cost is None:
            cost = self._link_cache[u, v] = self._cost_at(
                distance(self.nodes[u].position, self.nodes[v].position))
        return cost

    def _debit(self, node: SensorNode, amount: float) -> float:
        """Consume up to amount of a live node's energy and return what was consumed.

        A node whose residual reaches zero dies: callers read `not node.alive`
        afterwards and log the death row after the row of the event that
        caused it.
        """
        energy = node.energy
        residual = energy.residual
        consumed = amount if amount < residual else residual
        residual -= consumed
        if residual <= 0.0:
            residual = 0.0
            node.alive = False
        energy.residual = residual
        return consumed

    def _charge_busy(self, sender: SensorNode, start: float, duration: float):
        """Record sender's airtime, split at idle-window edges, in each window's charge lists.

        Nothing is added to any node.busy here: idle_fraction settles one node
        and window when it reads them.
        """
        window = self.cfg.hello.idle_window
        if window_of(start, window) <= self._read_through:
            raise RuntimeError(f"airtime at {start!r} charged to an idle window already read")
        charges = self._charges
        sender_id = sender.id
        t = start
        remaining = duration
        while remaining > 0.0:
            bucket = window_of(t, window)
            seg = min(remaining, (bucket + 1) * window - t)
            senders, segs = charges[bucket]
            senders.append(sender_id)
            segs.append(seg)
            t += seg
            remaining -= seg

    # ----- channel -----

    def _refuses(self, sender: SensorNode, pkt, now: float) -> bool:
        """True for a dead sender or a full queue; data refused by a full queue is dropped."""
        if not sender.alive:
            return True
        full = sender.pending_tx >= self.cfg.mac.queue_limit
        if full and isinstance(pkt, Data):
            self.log_row(now, sender.id, "drop", pkt.flow_id, pkt.sequence, "queue_full")
        return full

    def _occupy(self, sender: SensorNode, pkt, bits: int, to_id: int, attempts: int,
                spent: float, cost: LinkCost, now: float) -> float:
        """Hold sender's radio for the attempts' airtime once it is free; returns the end time.

        Each attempt is the link's mean contention plus bits at the nominal rate.  Charges
        the airtime to carrier sense and logs the tx row, then a death row if drained.
        """
        airtime = attempts * (bits / self.cfg.mac.b_no + cost.contention_s)
        start = max(now, sender.next_free)
        end = start + airtime
        sender.pending_tx += 1
        sender.next_free = end
        self._charge_busy(sender, start, airtime)
        self._schedule(end, _TX_DONE, sender.id)
        flow_id, seq = (pkt.flow_id, pkt.sequence) if isinstance(pkt, Data) else (-1, -1)
        self.log_row(now, sender.id, "tx", _PKT_KINDS[type(pkt)], bits, to_id, attempts, spent,
                     airtime, flow_id, seq)
        if not sender.alive:
            self.log_row(now, sender.id, "death")
        return end

    def _transmit_unicast(self, sender: SensorNode, to_id: int, pkt, bits: int, now: float):
        if self._refuses(sender, pkt, now):
            return
        cost = self.link_cost(sender.id, to_id)
        max_attempts = 1 + self.cfg.mac.retries
        attempts = 0
        delivered = False
        spent = 0.0
        while attempts < max_attempts and sender.alive:
            attempts += 1
            spent += self._debit(sender, cost.tx_j_per_bit * bits)
            if self.rng.random() >= cost.p_c:
                delivered = True
                break
        end = self._occupy(sender, pkt, bits, to_id, attempts, spent, cost, now)
        if delivered:
            self._schedule_receptions(end, (to_id,), sender.id, pkt, bits)
        elif isinstance(pkt, Data):
            self.log_row(now, sender.id, "drop", pkt.flow_id, pkt.sequence, "mac_loss")

    def _transmit_broadcast(self, sender: SensorNode, pkt, bits: int, now: float):
        if self._refuses(sender, pkt, now):
            return
        cost = self._broadcast_cost
        spent = self._debit(sender, cost.tx_j_per_bit * bits)
        end = self._occupy(sender, pkt, bits, -1, 1, spent, cost, now)
        draw = self.rng.random
        receivers = [nb_id for nb_id, p_c in zip(sender.neighbor_ids, self._neighbor_p_c(sender))
                     if draw() >= p_c]
        if receivers:
            self._schedule_receptions(end, receivers, sender.id, pkt, bits)

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

    def _receive_hellos(self, receivers, sender_id: int, pkt, bits: int, now: float):
        """Receive every reception of a hello block: debit, log and store its record.

        A survivor (`_debit`'s own case, amount < residual) is debited inline,
        joins the run and stores the block's one record through `on_hello`; a
        receiver that cannot pay goes through `_debit`, after the run is
        flushed, and stores nothing (module docstring).
        """
        amount = self._rx_energy.get(bits)
        if amount is None:
            amount = self._rx_energy[bits] = radio_rx_energy(bits, self.cfg.energy.e_elec)
        nodes = self.nodes
        append_rx = self.event_log.append_rx
        kind = _PKT_KINDS[Hello]
        record = NeighborRecord(pkt.residual_energy, pkt.sent_at, now)
        run = []
        for to_id in receivers:
            node = nodes[to_id]
            if not node.alive:
                continue
            energy = node.energy
            residual = energy.residual
            if amount < residual:
                energy.residual = residual - amount
                run.append(to_id)
                node.protocol.on_hello(sender_id, record)
                continue
            if run:
                append_rx(now, run, kind, bits, sender_id, amount)
                run = []
            append_rx(now, (to_id,), kind, bits, sender_id, self._debit(node, amount))
            self.log_row(now, to_id, "death")
        if run:
            append_rx(now, run, kind, bits, sender_id, amount)

    def _on_arrival(self, to_id: int, from_id: int, pkt, bits: int, now: float):
        """Receive pkt at to_id; a hello was received with its whole block by `_receive_hellos`."""
        if type(pkt) is Hello:
            return
        node = self.nodes[to_id]
        if not node.alive:
            if isinstance(pkt, Data):
                self.log_row(now, to_id, "drop", pkt.flow_id, pkt.sequence, "dead_receiver")
            return
        amount = self._rx_energy.get(bits)
        if amount is None:
            amount = self._rx_energy[bits] = radio_rx_energy(bits, self.cfg.energy.e_elec)
        consumed = self._debit(node, amount)
        kind = _PKT_KINDS[type(pkt)]
        if not node.alive:
            self.event_log.append_rx(now, (to_id,), kind, bits, from_id, consumed)
            self.log_row(now, to_id, "death")
            if isinstance(pkt, Data):
                self.log_row(now, to_id, "drop", pkt.flow_id, pkt.sequence, "dead_receiver")
            return
        self.event_log.add_rx(now, to_id, kind, bits, from_id, consumed)
        # The id test comes first: it is the cheaper one, and most receptions fail it.
        if to_id == self.sink_id and isinstance(pkt, Data):
            self.log_row(now, to_id, "deliver", pkt.flow_id, pkt.sequence, pkt.origin_timestamp,
                         pkt.payload_size)
            return
        effects = node.protocol.on_packet(pkt, from_id, now)
        if effects:
            self._apply(node, effects, now)

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
        effects = node.protocol.start_flow(flow.flow_id, flow.required_bandwidth, now)
        self._apply(node, effects, now)

    # ----- run -----

    def run(self):
        """Log the set-up rows, start every node and flow, and dispatch events to the horizon.

        Events dispatch in (time, seq) order, a block's receptions in one
        loop (module docstring).  A hello block goes whole through
        `_receive_hellos` when it is popped.  The first event past
        sim.duration is popped, dropped, and ends the run.
        """
        cfg = self.cfg
        for node in self.nodes:
            role = "sink" if node.id == self.sink_id else "sensor"
            self.log_row(0.0, node.id, "node", node.position.x, node.position.y,
                         node.energy.initial, role)
        for flow in self.flows:
            self.log_row(0.0, flow.source, "flow", flow.flow_id, flow.rate, flow.packet_bits,
                         flow.start, flow.stop, flow.required_bandwidth)
        for node in self.nodes:
            self._apply(node, node.protocol.start(0.0), 0.0)
        for i, flow in enumerate(self.flows):
            self._schedule(flow.start, _FLOW_START, i)
            self._schedule(flow.start, _EMIT, i, 0)

        duration = cfg.sim.duration
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        nodes = self.nodes
        on_arrival = self._on_arrival
        receive_hellos = self._receive_hellos
        while heap:
            event = heappop(heap)
            time = event[0]
            if time > duration:
                break
            if time < self.now:
                raise RuntimeError(f"event at {time!r} scheduled before its cause at {self.now!r}")
            self.now = time
            kind = event[2]
            if kind == _ARRIVAL:
                _, _, _, receivers, sender_id, pkt, bits = event
                if type(pkt) is Hello:
                    receive_hellos(receivers, sender_id, pkt, bits, time)
                for k, to_id in enumerate(receivers):
                    if k:  # the tracer's one pop per reception (module docstring)
                        ready.append((time, k))
                        heappop(ready)
                    on_arrival(to_id, sender_id, pkt, bits, time)
            elif kind == _TX_DONE:
                nodes[event[3]].pending_tx -= 1
            elif kind == _TIMER:
                node = nodes[event[3]]
                if node.alive:
                    self._apply(node, node.protocol.on_timer(event[4], event[5], time), time)
            elif kind == _EMIT:
                self._on_emit(event[3], event[4], time)
            elif kind == _FLOW_START:
                self._on_flow_start(event[3], time)
        return self


@dataclass
class RunResult:
    metrics: object
    event_log: EventLog
    engine: Engine


def run_scenario(cfg, seed: int | None = None) -> RunResult:
    """Execute one seeded run and compute its metrics from the event log."""
    from .metrics import compute_metrics

    engine = Engine(cfg, seed=seed).run()
    metrics = compute_metrics(engine.event_log, cfg)
    return RunResult(metrics, engine.event_log, engine)


# Rows rendered per chunk by _log_chunks: one chunk's row strings are alive at a time.
_FORMAT_CHUNK_ROWS = 4096


def format_log(event_log: EventLog | list[tuple]) -> str:
    """Render the event log as newline-delimited comma-joined records.

    Each row renders as ",".join(map(repr, row)) + "\n"; an empty log renders
    as a single newline.  The text is the join of `_log_chunks`.
    """
    return "".join(_log_chunks(event_log))


def _log_chunks(event_log: EventLog | list[tuple]):
    """Yield format_log's text in pieces of about _FORMAT_CHUNK_ROWS rows each.

    Takes an `EventLog` or a plain list of rows.  A chunk ends after the
    entry that brings it to _FORMAT_CHUNK_ROWS rows, so a run is never
    split.  A run's rows differ only in the receiver id (field 1), so the
    run renders as one join of its receivers' reprs, between the text
    before and after that field.
    """
    entries = log_entries(event_log)
    if not entries:
        yield "\n"
        return
    templates = {}  # by row length
    lines = []
    rows = 0
    for entry in entries:
        if type(entry) is RxRun:
            head = repr(entry.time) + ","
            tail = ",%r,%r,%r,%r,%r\n" % ("rx", entry.pkt_kind, entry.bits, entry.sender,
                                           entry.joules)
            lines.append(head + (tail + head).join(map(repr, entry.receivers)) + tail)
            rows += len(entry.receivers)
        else:
            template = templates.get(len(entry))
            if template is None:
                template = templates[len(entry)] = ",".join(["%r"] * len(entry)) + "\n"
            lines.append(template % entry)
            rows += 1
        if rows >= _FORMAT_CHUNK_ROWS:
            yield "".join(lines)
            lines = []
            rows = 0
    if lines:
        yield "".join(lines)


# A line format_log writes: comma-joined fields, each a float or int repr, a bool, a quoted
# word or a flat tuple of ints.  Each kind of field has one group, and _VALUE builds its value.
_INT = r"-?(?:0|[1-9][0-9]*)"
_FIELD = (rf"({_INT}(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+))|({_INT})|(True|False)|'(\w+)'"
          rf"|\(((?:{_INT}(?:, {_INT})+|{_INT},)?)\)")
_ROW = re.compile(rf"(?:{_FIELD})(?:,(?:{_FIELD}))*", re.ASCII)
_FIELDS = re.compile(_FIELD, re.ASCII)
_VALUE = (None, float, int, "True".__eq__, str,
          lambda ints: tuple(int(i) for i in ints.split(",") if i))  # by group index


def read_rows(lines):
    """The rows of the lines of a log rendered by format_log, parsed one line at a time.

    A line may keep its newline, as a file's lines do; blank lines are skipped.  Any
    other line that `_ROW` does not match raises ValueError.  Each field's value is
    built from the `_FIELD` group that matched it.
    """
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if _ROW.fullmatch(line) is None:
            raise ValueError(f"not a log row: {line[:60]!r}")
        yield tuple(_VALUE[m.lastindex](m[m.lastindex]) for m in _FIELDS.finditer(line))


def parse_log(text: str) -> list[tuple]:
    """Parse a log rendered by format_log back into tuples."""
    return list(read_rows(text.splitlines()))
