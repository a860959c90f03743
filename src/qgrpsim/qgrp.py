"""QGRP protocol state machine.

Per-node neighbor and forwarder management, the composite link metric,
greedy unicast RREQ/RREP route establishment guarded by destination
sequence numbers, and bandwidth admission control with notify-and-retry
semantics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

from .actions import Broadcast, StartTimer, Unicast
from .geometry import GeoContext, Position, deviation_angle, is_forward_progress
from .link_estimation import NeighborRecord, is_fresh, refresh_estimates
from . import geometry

# Guards keeping the metric finite for collinear or co-located candidates.
MIN_METRIC_DISTANCE = 1.0   # meters
MIN_METRIC_ANGLE = 0.01     # radians


class MissingEstimateError(LookupError):
    """A metric was requested for a candidate without fresh link/energy data."""


@dataclass
class NodeEnergy:
    """Residual and initial battery charge of one sensor, in joules."""

    residual: float
    initial: float

    def __post_init__(self):
        if self.initial <= 0:
            raise ValueError(f"initial energy must be positive, got {self.initial}")
        if not 0.0 <= self.residual <= self.initial:
            raise ValueError(f"residual must lie in [0, initial], got {self.residual}")


@dataclass(frozen=True)
class MetricWeights:
    """Bandwidth/energy weighting of the composite link metric."""

    alpha: float = 0.7
    beta: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise ValueError("alpha and beta must lie in [0, 1]")
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise ValueError(f"alpha + beta must equal 1, got {self.alpha + self.beta}")


@dataclass
class RouteEntry:
    destination: int
    next_hop: int
    dest_seq: int
    path_bandwidth: float
    valid: bool = True


# Packet variants.  Frozen so broadcast copies can be shared safely.

@dataclass(frozen=True)
class Hello:
    sender: int
    position: Position
    residual_energy: float
    idle_fraction: float
    seq: int


@dataclass(frozen=True)
class Rreq:
    flow_id: int
    source: int
    destination: int
    required_bandwidth: float
    path_bandwidth_so_far: float
    dest_seq_known: int
    retry_index: int
    hop_trace: tuple[int, ...]


@dataclass(frozen=True)
class Rrep:
    flow_id: int
    source: int
    destination: int
    dest_seq: int
    path_bandwidth: float
    hop_trace: tuple[int, ...]


@dataclass(frozen=True)
class AdmissionNotify:
    flow_id: int
    max_grantable_bandwidth: float
    rejecting_node: int


@dataclass(frozen=True)
class Data:
    flow_id: int
    payload_size: int
    origin_timestamp: float
    sequence: int


Packet = Hello | Rreq | Rrep | AdmissionNotify | Data


@dataclass
class FlowState:
    flow_id: int
    required_bandwidth: float
    admitted: bool = False
    failed: bool = False
    buffered: deque = field(default_factory=deque)
    rreq_retries_used: int = 0
    timer_gen: int = 0
    total_rreqs: int = 0
    max_grantable_seen: float = math.inf


@dataclass
class Reservation:
    peer: int
    bandwidth: float
    confirmed: bool
    updated_at: float


def is_fresher(seq_new: int, bw_new: float, seq_old: int, bw_old: float) -> bool:
    """Strict route freshness: higher sequence wins; ties need strictly more bandwidth."""
    return seq_new > seq_old or (seq_new == seq_old and bw_new > bw_old)


class QgrpNode:
    """Protocol state for one sensor.

    Handlers return effect lists (Unicast/Broadcast/StartTimer) that the
    simulation engine executes; all mutation happens through the engine's
    single-threaded event dispatch for this node.
    """

    def __init__(self, node_id: int, env):
        self.id = node_id
        self.env = env
        self.is_sink = node_id == env.sink_id
        self.neighbors: dict[int, NeighborRecord] = {}
        self.estimates: dict[int, float] = {}  # fresh neighbor -> available bit/s
        self._estimates_at = -1.0
        self.routes: dict[int, RouteEntry] = {}
        self.flows: dict[int, FlowState] = {}
        self.reservations: dict[int, Reservation] = {}
        self.reverse_hop: dict[int, int] = {}
        self.dest_seq = 0
        self.hello_seq = 0
        self.loop_witness_count = 0

    # ----- hello plane -----

    def start(self, now: float) -> list:
        offset = self.env.rng.uniform(0.0, self.env.hello_interval)
        return [StartTimer(offset, "hello", ())]

    def _emit_hello(self, now: float) -> list:
        self.hello_seq += 1
        pkt = Hello(
            self.id,
            self.env.positions[self.id],
            self.env.residual(self.id),
            self.env.idle_fraction(self.id, now),
            self.hello_seq,
        )
        jitter = self.env.hello_jitter
        gap = self.env.hello_interval * (1.0 + self.env.rng.uniform(-jitter, jitter))
        return [Broadcast(pkt, self.env.pkt_bits["hello"]), StartTimer(gap, "hello", ())]

    def on_hello(self, pkt: Hello, now: float) -> list:
        self.neighbors[pkt.sender] = NeighborRecord(pkt.residual_energy, pkt.idle_fraction, now)
        return []

    # ----- estimates and reservations -----

    def refresh(self, now: float) -> None:
        if self._estimates_at == now:
            return
        self.estimates = refresh_estimates(
            now,
            self.env.idle_fraction(self.id, now),
            self.neighbors,
            lambda peer: self.env.link_cost(self.id, peer),
            self.env.b_no,
            self.env.hello_expiry,
        )
        self._estimates_at = now
        self._purge_reservations(now)

    def _purge_reservations(self, now: float) -> None:
        ttl = self.env.reservation_ttl
        pending_ttl = self.env.rrep_wait * (self.env.max_retries + 2)
        for flow_id in list(self.reservations):
            res = self.reservations[flow_id]
            age = now - res.updated_at
            if (res.confirmed and age > ttl) or (not res.confirmed and age > pending_ttl):
                del self.reservations[flow_id]
                self.env.log(now, self.id, "release", flow_id, res.peer, res.bandwidth, "expired")

    def reserved_toward(self, peer: int, exclude_flow: int | None = None) -> float:
        """Bandwidth committed toward peer, optionally skipping one flow's own slot.

        A flow re-requesting a path replaces its reservation instead of
        adding a second one, so capacity checks made on its behalf must not
        count the slot it already holds.
        """
        return sum(
            r.bandwidth
            for flow_id, r in self.reservations.items()
            if r.peer == peer and flow_id != exclude_flow
        )

    def _reserve(self, flow_id: int, peer: int, bandwidth: float, now: float, confirmed: bool) -> None:
        prior = self.reservations.get(flow_id)
        if prior is not None and prior.peer != peer:
            self.env.log(now, self.id, "release", flow_id, prior.peer, prior.bandwidth, "superseded")
        self.reservations[flow_id] = Reservation(peer, bandwidth, confirmed, now)
        total = self.reserved_toward(peer)
        est = self.estimates[peer]
        self.env.log(now, self.id, "reserve", flow_id, peer, bandwidth, est, total)

    def _release(self, flow_id: int, now: float, reason: str) -> None:
        res = self.reservations.pop(flow_id, None)
        if res is not None:
            self.env.log(now, self.id, "release", flow_id, res.peer, res.bandwidth, reason)

    # ----- forwarder selection -----

    def _candidates(self, now: float, exclude):
        """Fresh neighbors, outside exclude, offering forward progress, with their estimates."""
        self.refresh(now)
        my_pos = self.env.positions[self.id]
        sink_pos = self.env.positions[self.env.sink_id]
        for peer, bw in self.estimates.items():
            if peer == self.id or peer in exclude:
                continue
            peer_pos = self.env.positions[peer]
            if peer_pos == my_pos:
                continue  # degenerate neighbor, excluded rather than erroring
            if is_forward_progress(GeoContext(my_pos, peer_pos, sink_pos)):
                yield peer, bw

    def forwarder_set(self, required_bandwidth: float, now: float, exclude=()) -> set[int]:
        """Neighbors offering forward progress and enough spare bandwidth."""
        if self.is_sink:
            return set()
        return {
            peer for peer, bw in self._candidates(now, exclude)
            if self.reserved_toward(peer) + required_bandwidth <= bw
        }

    def link_metric(self, candidate: int, now: float) -> float:
        """Composite score: weighted bandwidth/energy ratios over (distance * deviation)."""
        self.refresh(now)
        bw = self.estimates.get(candidate)
        rec = self.neighbors.get(candidate)
        if bw is None or rec is None:
            raise MissingEstimateError(f"no fresh link/energy data for candidate {candidate}")
        my_pos = self.env.positions[self.id]
        cand_pos = self.env.positions[candidate]
        sink_pos = self.env.positions[self.env.sink_id]
        b_ratio = bw / self.env.b_no
        e_ratio = rec.residual_energy / self.env.initial_energy
        r = geometry.distance(cand_pos, sink_pos)
        theta = deviation_angle(GeoContext(my_pos, cand_pos, sink_pos))
        weights = self.env.weights
        numerator = weights.alpha * b_ratio + weights.beta * e_ratio
        return numerator / (max(r, MIN_METRIC_DISTANCE) * max(theta, MIN_METRIC_ANGLE))

    def select_next_hop(self, required_bandwidth: float, now: float, exclude=()):
        """Highest-metric member of the forwarder set; ties go to the lowest id."""
        candidates = self.forwarder_set(required_bandwidth, now, exclude)
        if not candidates:
            return None
        return max(sorted(candidates), key=lambda peer: self.link_metric(peer, now))

    def _max_grantable(self, now: float, exclude=()) -> float:
        """Largest requirement for which the forwarder set would be non-empty."""
        if self.is_sink:
            return 0.0
        best = 0.0
        for peer, bw in self._candidates(now, exclude):
            best = max(best, bw - self.reserved_toward(peer))
        return best

    # ----- route establishment -----

    def start_flow(self, flow_id: int, required_bandwidth: float, now: float) -> list:
        flow = FlowState(flow_id, required_bandwidth)
        self.flows[flow_id] = flow
        return self._emit_rreq(flow, now)

    def _emit_rreq(self, flow: FlowState, now: float) -> list:
        nxt = self.select_next_hop(flow.required_bandwidth, now, exclude=(self.id,))
        if nxt is None:
            cap = self._max_grantable(now, exclude=(self.id,))
            return self._apply_admission_rejection(flow, cap, now)
        est = self.estimates[nxt]
        self._reserve(flow.flow_id, nxt, flow.required_bandwidth, now, confirmed=False)
        entry = self.routes.get(self.env.sink_id)
        known = entry.dest_seq if entry is not None and entry.valid else 0
        flow.total_rreqs += 1
        retry_index = flow.total_rreqs - 1
        pkt = Rreq(
            flow.flow_id,
            self.id,
            self.env.sink_id,
            flow.required_bandwidth,
            est,
            known,
            retry_index,
            (self.id,),
        )
        self.env.log(now, self.id, "rreq_link", flow.flow_id, retry_index, nxt, est)
        flow.timer_gen += 1
        return [
            Unicast(nxt, pkt, self.env.pkt_bits["rreq"]),
            StartTimer(self.env.rrep_wait, "rreq_timeout", (flow.flow_id, flow.timer_gen)),
        ]

    def handle_rreq(self, pkt: Rreq, from_id: int, now: float) -> list:
        self.reverse_hop[pkt.flow_id] = from_id
        if self.id in pkt.hop_trace:
            # Loop witness; trace exclusion below must keep this unreachable.
            self.loop_witness_count += 1
            self.env.log(now, self.id, "loop_witness", pkt.flow_id, pkt.retry_index)
            return []

        if self.is_sink and self.id == pkt.destination:
            self.dest_seq += 1
            rrep = Rrep(
                pkt.flow_id,
                pkt.source,
                self.id,
                self.dest_seq,
                pkt.path_bandwidth_so_far,
                pkt.hop_trace + (self.id,),
            )
            self.env.log(
                now, self.id, "rrep_origin", pkt.flow_id, pkt.retry_index, rrep.path_bandwidth
            )
            return [Unicast(from_id, rrep, self.env.pkt_bits["rrep"])]

        self.refresh(now)
        entry = self.routes.get(pkt.destination)
        if (
            entry is not None
            and entry.valid
            and entry.next_hop in self.estimates
            and self.reserved_toward(entry.next_hop) + pkt.required_bandwidth
            <= self.estimates[entry.next_hop]
        ):
            # Answer from the cached route; its own first link must still
            # carry this flow, so the bandwidth check above is required for
            # admission soundness.
            self._reserve(pkt.flow_id, entry.next_hop, pkt.required_bandwidth, now, confirmed=True)
            bw = min(pkt.path_bandwidth_so_far, entry.path_bandwidth)
            self.env.log(
                now, self.id, "cache_reply", pkt.flow_id, pkt.retry_index, entry.path_bandwidth
            )
            rrep = Rrep(
                pkt.flow_id, pkt.source, pkt.destination, entry.dest_seq, bw,
                pkt.hop_trace + (self.id,),
            )
            self.env.log(now, self.id, "rrep_origin", pkt.flow_id, pkt.retry_index, bw)
            return [Unicast(from_id, rrep, self.env.pkt_bits["rrep"])]

        exclude = set(pkt.hop_trace)
        exclude.add(self.id)
        nxt = self.select_next_hop(pkt.required_bandwidth, now, exclude=exclude)
        if nxt is not None:
            est = self.estimates[nxt]
            self._reserve(pkt.flow_id, nxt, pkt.required_bandwidth, now, confirmed=False)
            self.env.log(now, self.id, "rreq_link", pkt.flow_id, pkt.retry_index, nxt, est)
            fwd = replace(
                pkt,
                path_bandwidth_so_far=min(pkt.path_bandwidth_so_far, est),
                hop_trace=pkt.hop_trace + (self.id,),
            )
            return [Unicast(nxt, fwd, self.env.pkt_bits["rreq"])]

        cap = self._max_grantable(now, exclude=exclude)
        self.env.log(now, self.id, "admission_reject", pkt.flow_id, pkt.retry_index, cap)
        notify = AdmissionNotify(pkt.flow_id, cap, self.id)
        return [Unicast(from_id, notify, self.env.pkt_bits["notify"])]

    def handle_rrep(self, pkt: Rrep, from_id: int, now: float) -> list:
        trace = pkt.hop_trace
        try:
            idx = trace.index(self.id)
        except ValueError:
            return []

        entry = self.routes.get(pkt.destination)
        if idx + 1 < len(trace) and (
            entry is None
            or not entry.valid
            or is_fresher(pkt.dest_seq, pkt.path_bandwidth, entry.dest_seq, entry.path_bandwidth)
        ):
            next_hop = trace[idx + 1]
            self.routes[pkt.destination] = RouteEntry(
                pkt.destination, next_hop, pkt.dest_seq, pkt.path_bandwidth
            )
            self.env.log(
                now, self.id, "route_install", pkt.destination, next_hop, pkt.dest_seq,
                pkt.path_bandwidth,
            )

        if idx + 1 < len(trace):
            res = self.reservations.get(pkt.flow_id)
            if res is not None:
                self.refresh(now)
                if trace[idx + 1] in self.estimates:
                    self._reserve(pkt.flow_id, trace[idx + 1], res.bandwidth, now, confirmed=True)

        if idx == 0:
            return self._admit_locally(pkt, now)
        return [Unicast(trace[idx - 1], pkt, self.env.pkt_bits["rrep"])]

    def _admit_locally(self, pkt: Rrep, now: float) -> list:
        flow = self.flows.get(pkt.flow_id)
        if flow is None or flow.failed or flow.admitted:
            return []
        flow.admitted = True
        flow.timer_gen += 1
        self.env.log(
            now, self.id, "admit", pkt.flow_id, flow.required_bandwidth, pkt.hop_trace,
            pkt.path_bandwidth,
        )
        effects = []
        while flow.buffered:
            effects.extend(self.forward_data(flow.buffered.popleft(), now))
        return effects

    # ----- admission control -----

    def handle_admission_notify(self, pkt: AdmissionNotify, from_id: int, now: float) -> list:
        flow = self.flows.get(pkt.flow_id)
        if flow is not None:
            if flow.admitted or flow.failed:
                return []
            self._release(pkt.flow_id, now, "rejected")
            flow.timer_gen += 1
            return self._apply_admission_rejection(flow, pkt.max_grantable_bandwidth, now)
        self._release(pkt.flow_id, now, "rejected")
        prev = self.reverse_hop.get(pkt.flow_id)
        if prev is None:
            return []
        return [Unicast(prev, pkt, self.env.pkt_bits["notify"])]

    def _apply_admission_rejection(self, flow: FlowState, max_grantable: float, now: float) -> list:
        flow.max_grantable_seen = min(flow.max_grantable_seen, max_grantable)
        if self.env.source_policy == "reduce":
            if flow.rreq_retries_used >= self.env.max_retries or flow.max_grantable_seen <= 0.0:
                return self._fail_flow(flow, now)
            flow.required_bandwidth = flow.max_grantable_seen
            flow.rreq_retries_used += 1
            return self._emit_rreq(flow, now)
        if flow.rreq_retries_used >= self.env.max_retries:
            return self._fail_flow(flow, now)
        delay = self.env.retry_backoff * (2**flow.rreq_retries_used)
        flow.timer_gen += 1
        return [StartTimer(delay, "rreq_retry", (flow.flow_id, flow.timer_gen))]

    def _fail_flow(self, flow: FlowState, now: float) -> list:
        flow.failed = True
        self._release(flow.flow_id, now, "failed")
        while flow.buffered:
            pkt = flow.buffered.popleft()
            self.env.log(now, self.id, "drop", pkt.flow_id, pkt.sequence, "flow_failed")
        self.env.log(now, self.id, "flow_failed", flow.flow_id)
        return []

    def on_timer(self, kind: str, payload: tuple, now: float) -> list:
        if kind == "hello":
            return self._emit_hello(now)
        if kind in ("rreq_timeout", "rreq_retry"):
            flow_id, gen = payload
            flow = self.flows.get(flow_id)
            if flow is None or flow.admitted or flow.failed or flow.timer_gen != gen:
                return []
            if flow.rreq_retries_used >= self.env.max_retries:
                return self._fail_flow(flow, now)
            flow.rreq_retries_used += 1
            return self._emit_rreq(flow, now)
        raise ValueError(f"unknown timer kind {kind!r}")

    # ----- data plane -----

    def on_data_emit(self, flow_id: int, payload_bits: int, seq: int, now: float) -> list:
        flow = self.flows[flow_id]
        pkt = Data(flow_id, payload_bits, now, seq)
        if flow.failed:
            self.env.log(now, self.id, "drop", flow_id, seq, "flow_failed")
            return []
        if not flow.admitted:
            if len(flow.buffered) >= self.env.buffer_capacity:
                old = flow.buffered.popleft()
                self.env.log(now, self.id, "drop", flow_id, old.sequence, "buffer_overflow")
            flow.buffered.append(pkt)
            return []
        return self.forward_data(pkt, now)

    def forward_data(self, pkt: Data, now: float) -> list:
        entry = self.routes.get(self.env.sink_id)
        if entry is not None and entry.valid:
            self._purge_reservations(now)
            if not is_fresh(self.neighbors.get(entry.next_hop), now, self.env.hello_expiry):
                entry.valid = False
                self.env.log(now, self.id, "route_invalidate", entry.destination, entry.next_hop)
        if entry is None or not entry.valid:
            flow = self.flows.get(pkt.flow_id)
            self.env.log(now, self.id, "drop", pkt.flow_id, pkt.sequence, "no_route")
            if flow is not None and not flow.failed and flow.admitted:
                # Source lost its route; start a fresh establishment episode.
                flow.admitted = False
                flow.rreq_retries_used = 0
                flow.timer_gen += 1
                return self._emit_rreq(flow, now)
            return []
        res = self.reservations.get(pkt.flow_id)
        if res is not None and res.confirmed:
            res.updated_at = now
        bits = self.env.pkt_bits["data_header"] + pkt.payload_size
        return [Unicast(entry.next_hop, pkt, bits)]

    # ----- dispatch -----

    def on_packet(self, pkt: Packet, from_id: int, now: float) -> list:
        if isinstance(pkt, Hello):
            return self.on_hello(pkt, now)
        if isinstance(pkt, Rreq):
            return self.handle_rreq(pkt, from_id, now)
        if isinstance(pkt, Rrep):
            return self.handle_rrep(pkt, from_id, now)
        if isinstance(pkt, AdmissionNotify):
            return self.handle_admission_notify(pkt, from_id, now)
        if isinstance(pkt, Data):
            if self.is_sink:
                self.env.log(
                    now, self.id, "deliver", pkt.flow_id, pkt.sequence, pkt.origin_timestamp,
                    pkt.payload_size,
                )
                return []
            return self.forward_data(pkt, now)
        raise TypeError(f"unexpected packet {pkt!r}")
