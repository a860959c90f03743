"""QGRP protocol state machine.

Per-node neighbor and forwarder management, the composite link metric,
greedy unicast RREQ/RREP route establishment guarded by destination
sequence numbers, and bandwidth admission control with notify-and-retry
semantics.

Every flow runs from a sensor to the one sink, so a node keeps one route,
toward the sink, and no packet names a destination.

Each route-control rule has one writer: `_extend` is the RREQ hop, and a
source's RREQ is that relay step applied to an empty trace; `_fits` is the
admission test, `_reply` the RREP origin and `_retry` the retry budget.

Hellos carry a sender's residual energy and send time only: node
positions come from `env.positions`.  A hello reports its sender's idle
share through `sent_at`: a neighbour reads the sender's idle share of the
last window closed by `sent_at` through `env.idle_fraction` when it
refreshes its estimates, and a closed window is final, so that is the
share the sender had when it sent the hello.  The engine receives a
hello block whole: it debits and logs the block's receptions and builds
one frozen `NeighborRecord` for it.  In that same pass it calls
`on_hello` once per receiver that survives its debit, with that record,
so every such receiver of the block stores the same object: `on_hello`
is one dict store, and returns nothing, because a hello never makes a
node act.  `on_packet` dispatches every other packet.  The
sequence-number guard is `is_fresher`, applied where an RREP installs a
route.  A cache reply does not compare the requester's known sequence
number, because an RREQ carries none.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

from .actions import Broadcast, Data, StartTimer, Unicast, fail, hold
from .geometry import deviation_angle, distance, is_forward_progress
from .link_estimation import NeighborRecord, is_fresh, refresh_estimates
from .metrics import left_sum
from .params import FRACTION, check_params, param

# Guards keeping the metric finite for collinear or co-located candidates.
MIN_METRIC_DISTANCE = 1.0   # meters
MIN_METRIC_ANGLE = 0.01     # radians


class MissingEstimateError(LookupError):
    """A metric was requested for a candidate without fresh link/energy data."""


@dataclass(frozen=True)
class MetricWeights:
    """Bandwidth/energy weighting of the composite link metric: beta weighs energy."""

    beta: float = param(0.3, check=FRACTION)

    def __post_init__(self):
        check_params(self)

    @property
    def alpha(self) -> float:
        """The bandwidth weight, 1 - beta."""
        return 1.0 - self.beta


@dataclass
class RouteEntry:
    next_hop: int
    dest_seq: int
    path_bandwidth: float


# Packet variants.  Frozen so broadcast copies can be shared safely.

@dataclass(frozen=True, slots=True)
class Hello:
    """A neighbour beacon: the sender's residual energy and the time it was sent.

    The sender's idle share is the one of its last idle window closed by
    sent_at; receivers read it through `env.idle_fraction(sender, sent_at)`.
    """

    residual_energy: float
    sent_at: float


@dataclass(frozen=True)
class Rreq:
    flow_id: int
    required_bandwidth: float
    path_bandwidth_so_far: float
    retry_index: int
    hop_trace: tuple[int, ...]


@dataclass(frozen=True)
class Rrep:
    flow_id: int
    dest_seq: int
    path_bandwidth: float
    hop_trace: tuple[int, ...]


@dataclass(frozen=True)
class AdmissionNotify:
    flow_id: int
    max_grantable_bandwidth: float


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
        self.route: RouteEntry | None = None  # toward the sink
        self.flows: dict[int, FlowState] = {}
        self.reservations: dict[int, Reservation] = {}
        self.reverse_hop: dict[int, int] = {}
        self.dest_seq = 0

    # ----- hello plane -----

    def start(self, now: float) -> list:
        offset = self.env.rng.uniform(0.0, self.env.hello.interval)
        return [StartTimer(offset, "hello", ())]

    def _emit_hello(self, now: float) -> list:
        pkt = Hello(self.env.residual(self.id), now)
        jitter = self.env.hello.jitter
        gap = self.env.hello.interval * (1.0 + self.env.rng.uniform(-jitter, jitter))
        return [Broadcast(pkt, self.env.pkt.hello), StartTimer(gap, "hello", ())]

    def on_hello(self, sender: int, record: NeighborRecord) -> None:
        """Keep record as what this node knows of sender.

        The engine calls this while it receives a hello block, once per
        receiver that survives the block's debit, and hands every such
        receiver the block's one frozen record.  Re-assigning a key keeps its first-heard place
        in `neighbors`, the order `refresh` walks.
        """
        self.neighbors[sender] = record

    # ----- estimates and reservations -----

    def refresh(self, now: float) -> None:
        if self._estimates_at == now:
            return
        self.estimates = refresh_estimates(
            now,
            self.env.idle_fraction(self.id, now),
            self.neighbors,
            self.env.idle_fraction,
            lambda peer: self.env.link_cost(self.id, peer),
            self.env.mac.b_no,
            self.env.hello.expiry,
        )
        self._estimates_at = now
        self._purge_reservations(now)

    def _purge_reservations(self, now: float) -> None:
        ttl = self.env.retry.reservation_ttl
        pending_ttl = self.env.retry.rrep_wait * (self.env.retry.max_retries + 2)
        for flow_id in list(self.reservations):
            res = self.reservations[flow_id]
            age = now - res.updated_at
            if (res.confirmed and age > ttl) or (not res.confirmed and age > pending_ttl):
                self._release(flow_id, now, "expired")

    def reserved_toward(self, peer: int) -> float:
        """Bandwidth committed toward peer, summed over every flow's reservation."""
        return left_sum(r.bandwidth for r in self.reservations.values() if r.peer == peer)

    def _reserve(self, flow_id: int, peer: int, bandwidth: float, now: float, confirmed: bool) -> bool:
        """Hold bandwidth toward peer for flow_id, unless the link's total would pass its
        estimate, which may have fallen since the RREQ hop; a refusal leaves the old hold."""
        prior = self.reservations.get(flow_id)
        self.reservations[flow_id] = Reservation(peer, bandwidth, confirmed, now)
        total = self.reserved_toward(peer)
        est = self.estimates[peer]
        if total > est:
            if prior is None:
                del self.reservations[flow_id]
            else:
                self.reservations[flow_id] = prior
            return False
        if prior is not None and prior.peer != peer:
            self.env.log(now, self.id, "release", flow_id, prior.peer, prior.bandwidth, "superseded")
        self.env.log(now, self.id, "reserve", flow_id, peer, bandwidth, est, total)
        return True

    def _release(self, flow_id: int, now: float, reason: str) -> None:
        res = self.reservations.pop(flow_id, None)
        if res is not None:
            self.env.log(now, self.id, "release", flow_id, res.peer, res.bandwidth, reason)

    # ----- forwarder selection -----

    def _candidates(self, now: float, exclude):
        """Fresh neighbors, outside exclude, offering forward progress, with their estimates."""
        if self.is_sink:
            return  # the sink forwards nothing; refresh would log expired releases
        self.refresh(now)
        my_pos = self.env.positions[self.id]
        sink_pos = self.env.positions[self.env.sink_id]
        for peer, bw in self.estimates.items():
            if peer == self.id or peer in exclude:
                continue
            peer_pos = self.env.positions[peer]
            if peer_pos == my_pos:
                continue  # degenerate neighbor, excluded rather than erroring
            if is_forward_progress(my_pos, peer_pos, sink_pos):
                yield peer, bw

    def _fits(self, peer: int, required_bandwidth: float) -> bool:
        """Admission test: the link to peer carries the flow on top of all reserved toward it."""
        return self.reserved_toward(peer) + required_bandwidth <= self.estimates[peer]

    def forwarder_set(self, required_bandwidth: float, now: float, exclude=()) -> set[int]:
        """Neighbors offering forward progress and enough spare bandwidth."""
        candidates = self._candidates(now, exclude)
        return {peer for peer, _ in candidates if self._fits(peer, required_bandwidth)}

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
        b_ratio = bw / self.env.mac.b_no
        e_ratio = rec.residual_energy / self.env.energy.initial
        r = distance(cand_pos, sink_pos)
        theta = deviation_angle(my_pos, cand_pos, sink_pos)
        weights = self.env.weights
        numerator = weights.alpha * b_ratio + weights.beta * e_ratio
        return numerator / (max(r, MIN_METRIC_DISTANCE) * max(theta, MIN_METRIC_ANGLE))

    def select_next_hop(self, required_bandwidth: float, now: float, exclude=()):
        """Highest-metric member of the forwarder set; ties go to the lowest id."""
        candidates = self.forwarder_set(required_bandwidth, now, exclude)
        if not candidates:
            return None
        return max(sorted(candidates), key=lambda peer: self.link_metric(peer, now))

    def _max_grantable(self, now: float, exclude, own=None) -> float:
        """Largest requirement for which the forwarder set would be non-empty, own's hold left out."""
        held = self.reservations.get(own)
        best = 0.0
        for peer, bw in self._candidates(now, exclude):
            mine = held.bandwidth if held is not None and held.peer == peer else 0.0
            best = max(best, bw - (self.reserved_toward(peer) - mine))
        return best

    # ----- route establishment -----

    def start_flow(self, flow_id: int, required_bandwidth: float, now: float) -> list:
        flow = FlowState(flow_id, required_bandwidth)
        self.flows[flow_id] = flow
        return self._emit_rreq(flow, now)

    def _emit_rreq(self, flow: FlowState, now: float) -> list:
        pkt = Rreq(flow.flow_id, flow.required_bandwidth, math.inf, flow.total_rreqs, ())
        step = self._extend(pkt, now)
        if isinstance(step, AdmissionNotify):
            return self._apply_admission_rejection(flow, step.max_grantable_bandwidth, now)
        flow.total_rreqs += 1
        flow.timer_gen += 1
        return [step, StartTimer(self.env.retry.rrep_wait, "rreq_retry", (flow.flow_id, flow.timer_gen))]

    def _extend(self, pkt: Rreq, now: float) -> Unicast | AdmissionNotify:
        """One RREQ hop: forward pkt over a reserved next hop off its trace, or reject it."""
        exclude = {*pkt.hop_trace, self.id}
        nxt = self.select_next_hop(pkt.required_bandwidth, now, exclude=exclude)
        if nxt is None or not self._reserve(pkt.flow_id, nxt, pkt.required_bandwidth, now, confirmed=False):
            return AdmissionNotify(pkt.flow_id, self._max_grantable(now, exclude))
        est = self.estimates[nxt]
        self.env.log(now, self.id, "rreq_link", pkt.flow_id, pkt.retry_index, nxt, est)
        bw = min(pkt.path_bandwidth_so_far, est)
        fwd = replace(pkt, path_bandwidth_so_far=bw, hop_trace=pkt.hop_trace + (self.id,))
        return Unicast(nxt, fwd, self.env.pkt.rreq)

    def _reply(self, pkt: Rreq, from_id: int, dest_seq: int, bw: float, now: float) -> list:
        """Originate the RREP answering pkt, back along its trace extended by this node."""
        rrep = Rrep(pkt.flow_id, dest_seq, bw, pkt.hop_trace + (self.id,))
        self.env.log(now, self.id, "rrep_origin", pkt.flow_id, pkt.retry_index, bw)
        return [Unicast(from_id, rrep, self.env.pkt.rrep)]

    def handle_rreq(self, pkt: Rreq, from_id: int, now: float) -> list:
        self.reverse_hop[pkt.flow_id] = from_id
        if self.id in pkt.hop_trace:
            # Loop witness; trace exclusion in _extend must keep this unreachable.
            self.env.log(now, self.id, "loop_witness", pkt.flow_id, pkt.retry_index)
            return []

        if self.is_sink:
            self.dest_seq += 1
            return self._reply(pkt, from_id, self.dest_seq, pkt.path_bandwidth_so_far, now)

        self.refresh(now)
        entry = self.route
        if (
            entry is not None
            and entry.next_hop in self.estimates
            and self._fits(entry.next_hop, pkt.required_bandwidth)
        ):
            # Answer from the cached route; its own first link must still
            # carry this flow, so the admission test above is required for
            # admission soundness.
            self._reserve(pkt.flow_id, entry.next_hop, pkt.required_bandwidth, now, confirmed=True)
            self.env.log(
                now, self.id, "cache_reply", pkt.flow_id, pkt.retry_index, entry.path_bandwidth
            )
            bw = min(pkt.path_bandwidth_so_far, entry.path_bandwidth)
            return self._reply(pkt, from_id, entry.dest_seq, bw, now)

        step = self._extend(pkt, now)
        if isinstance(step, Unicast):
            return [step]
        cap = step.max_grantable_bandwidth
        self.env.log(now, self.id, "admission_reject", pkt.flow_id, pkt.retry_index, cap)
        return [Unicast(from_id, step, self.env.pkt.notify)]

    def handle_rrep(self, pkt: Rrep, from_id: int, now: float) -> list:
        trace = pkt.hop_trace
        try:
            idx = trace.index(self.id)
        except ValueError:
            return []

        if idx + 1 < len(trace):
            next_hop = trace[idx + 1]
            entry = self.route
            if entry is None or is_fresher(
                pkt.dest_seq, pkt.path_bandwidth, entry.dest_seq, entry.path_bandwidth
            ):
                self.route = RouteEntry(next_hop, pkt.dest_seq, pkt.path_bandwidth)
                self.env.log(
                    now, self.id, "route_install", self.env.sink_id, next_hop, pkt.dest_seq,
                    pkt.path_bandwidth,
                )
            res = self.reservations.get(pkt.flow_id)
            if res is not None:
                self.refresh(now)
                if next_hop in self.estimates and not self._reserve(
                    pkt.flow_id, next_hop, res.bandwidth, now, confirmed=True
                ):  # confirming would overbook the link: reject as an RREQ hop would
                    grant = self._max_grantable(now, trace[: idx + 1], pkt.flow_id)
                    return self.handle_admission_notify(AdmissionNotify(pkt.flow_id, grant), next_hop, now)

        if idx == 0:
            return self._admit_locally(pkt, now)
        return [Unicast(trace[idx - 1], pkt, self.env.pkt.rrep)]

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
        if flow is not None and (flow.admitted or flow.failed):
            return []
        self._release(pkt.flow_id, now, "rejected")
        if flow is not None:
            flow.timer_gen += 1
            return self._apply_admission_rejection(flow, pkt.max_grantable_bandwidth, now)
        prev = self.reverse_hop.get(pkt.flow_id)
        if prev is None:
            return []
        return [Unicast(prev, pkt, self.env.pkt.notify)]

    def _apply_admission_rejection(self, flow: FlowState, max_grantable: float, now: float) -> list:
        flow.max_grantable_seen = min(flow.max_grantable_seen, max_grantable)
        if self.env.retry.policy == "retry":
            delay = self.env.retry.backoff * (2**flow.rreq_retries_used)
            return self._retry(flow, now, delay)
        if flow.max_grantable_seen <= 0.0:
            return self._fail_flow(flow, now)
        flow.required_bandwidth = flow.max_grantable_seen
        return self._retry(flow, now)

    def _retry(self, flow: FlowState, now: float, delay: float = 0.0) -> list:
        """Spend a retry on a fresh RREQ, after delay if one is given, or fail if none is left."""
        if flow.rreq_retries_used >= self.env.retry.max_retries:
            return self._fail_flow(flow, now)
        if delay:
            flow.timer_gen += 1
            return [StartTimer(delay, "rreq_retry", (flow.flow_id, flow.timer_gen))]
        flow.rreq_retries_used += 1
        return self._emit_rreq(flow, now)

    def _fail_flow(self, flow: FlowState, now: float) -> list:
        self._release(flow.flow_id, now, "failed")
        fail(self, flow, now)
        return []

    def on_timer(self, kind: str, payload: tuple, now: float) -> list:
        if kind == "hello":
            return self._emit_hello(now)
        if kind == "rreq_retry":
            flow_id, gen = payload
            flow = self.flows.get(flow_id)
            if flow is None or flow.admitted or flow.failed or flow.timer_gen != gen:
                return []
            return self._retry(flow, now)
        raise ValueError(f"unknown timer kind {kind!r}")

    # ----- data plane -----

    def on_data_emit(self, flow_id: int, payload_bits: int, seq: int, now: float) -> list:
        flow = self.flows[flow_id]
        pkt = Data(flow_id, payload_bits, now, seq)
        if flow.failed:
            self.env.log(now, self.id, "drop", flow_id, seq, "flow_failed")
            return []
        if not flow.admitted:
            hold(self, flow, pkt, now)
            return []
        return self.forward_data(pkt, now)

    def forward_data(self, pkt: Data, now: float) -> list:
        entry = self.route
        if entry is not None:
            self._purge_reservations(now)
            if not is_fresh(self.neighbors.get(entry.next_hop), now, self.env.hello.expiry):
                self.env.log(now, self.id, "route_invalidate", self.env.sink_id, entry.next_hop)
                self.route = entry = None
        if entry is None:
            flow = self.flows.get(pkt.flow_id)
            self.env.log(now, self.id, "drop", pkt.flow_id, pkt.sequence, "no_route")
            if flow is not None and not flow.failed and flow.admitted:
                # Source lost its route; start a fresh establishment episode.
                flow.admitted = False
                flow.rreq_retries_used = 0
                return self._emit_rreq(flow, now)
            return []
        res = self.reservations.get(pkt.flow_id)
        if res is not None and res.confirmed:
            res.updated_at = now
        bits = self.env.pkt.data_header + pkt.payload_size
        return [Unicast(entry.next_hop, pkt, bits)]

    # ----- dispatch -----

    def on_packet(self, pkt: Packet, from_id: int, now: float) -> list:
        """Handle every reception but a hello: the engine hands hellos to `on_hello`."""
        if isinstance(pkt, Rreq):
            return self.handle_rreq(pkt, from_id, now)
        if isinstance(pkt, Rrep):
            return self.handle_rrep(pkt, from_id, now)
        if isinstance(pkt, AdmissionNotify):
            return self.handle_admission_notify(pkt, from_id, now)
        if isinstance(pkt, Data):
            return self.forward_data(pkt, now)
        raise TypeError(f"unexpected packet {pkt!r}")
