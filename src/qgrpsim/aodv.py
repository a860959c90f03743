"""Simplified AODV baseline: flooded route discovery, shortest hop count.

Keeps the RFC 3561 essentials needed for a fair benchmark (flooded RREQs
with duplicate suppression, destination sequence numbers, reverse-path
RREPs, route lifetimes) and deliberately omits hello-based connectivity,
local repair, gratuitous RREPs, and expanding-ring search.

As in QGRP, every flow runs from a sensor to the one sink, so packets and
flows name no destination.  Routes stay keyed by node, because an RREQ
installs a reverse route to its source (RFC 3561 section 6.5).  A source
keeps one discovery toward the sink open at a time, and each discovery
timeout is keyed by the RREQ it guards: one armed by an answered or
superseded RREQ does nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .actions import Broadcast, Data, StartTimer, Unicast, fail, hold


@dataclass
class AodvRouteEntry:
    next_hop: int
    hop_count: int
    dest_seq: int
    valid: bool
    lifetime: float


@dataclass(frozen=True)
class AodvRreq:
    source: int
    rreq_id: int
    origin_seq: int
    dest_seq_known: int
    hop_count: int


@dataclass(frozen=True)
class AodvRrep:
    origin: int
    dest_seq: int
    hop_count: int


@dataclass
class AodvFlow:
    flow_id: int
    buffered: deque = field(default_factory=deque)
    failed: bool = False


class AodvNode:
    """Protocol state for one sensor running the AODV baseline."""

    def __init__(self, node_id: int, env):
        self.id = node_id
        self.env = env
        self.routes: dict[int, AodvRouteEntry] = {}
        self.flows: dict[int, AodvFlow] = {}
        self.retries: int | None = None  # spent by the open discovery; None when none is open
        self.seen: set[tuple[int, int]] = set()
        self.own_seq = 0
        self.rreq_counter = 0

    def start(self, now: float) -> list:
        return []

    # ----- routing table -----

    def valid_route(self, dest: int, now: float):
        entry = self.routes.get(dest)
        if (
            entry is not None
            and entry.valid
            and entry.lifetime >= now
            and self.env.alive(entry.next_hop)
        ):
            return entry
        return None

    def _install(self, dest: int, next_hop: int, hop_count: int, dest_seq: int, now: float) -> None:
        """Install or refresh a route, preferring higher seq then lower hop count."""
        lifetime = now + self.env.aodv.active_route_timeout
        entry = self.routes.get(dest)
        if (
            entry is None
            or not entry.valid
            or entry.lifetime < now
            or dest_seq > entry.dest_seq
            or (dest_seq == entry.dest_seq and hop_count < entry.hop_count)
        ):
            self.routes[dest] = AodvRouteEntry(next_hop, hop_count, dest_seq, True, lifetime)
            self.env.log(now, self.id, "route_install", dest, next_hop, dest_seq, hop_count)
        elif dest_seq == entry.dest_seq and hop_count == entry.hop_count and next_hop == entry.next_hop:
            entry.lifetime = max(entry.lifetime, lifetime)

    # ----- discovery -----

    def _ensure_discovery(self, now: float) -> list:
        if self.retries is not None:
            return []
        self.retries = 0
        return self._emit_rreq(now)

    def _emit_rreq(self, now: float) -> list:
        self.rreq_counter += 1
        self.own_seq += 1
        entry = self.routes.get(self.env.sink_id)
        known = entry.dest_seq if entry is not None else 0
        pkt = AodvRreq(self.id, self.rreq_counter, self.own_seq, known, 0)
        self.seen.add((self.id, self.rreq_counter))
        return [
            Broadcast(pkt, self.env.pkt.rreq),
            StartTimer(self.env.retry.rrep_wait, "aodv_timeout", (self.rreq_counter,)),
        ]

    def _handle_rreq(self, pkt: AodvRreq, from_id: int, now: float) -> list:
        key = (pkt.source, pkt.rreq_id)
        if key in self.seen:
            return []
        self.seen.add(key)
        self._install(pkt.source, from_id, pkt.hop_count + 1, pkt.origin_seq, now)
        if self.id == self.env.sink_id:
            self.own_seq = max(self.own_seq, pkt.dest_seq_known) + 1
            rrep = AodvRrep(pkt.source, self.own_seq, 0)
            return [Unicast(from_id, rrep, self.env.pkt.rrep)]
        cached = self.valid_route(self.env.sink_id, now)
        if cached is not None and cached.dest_seq >= pkt.dest_seq_known:
            rrep = AodvRrep(pkt.source, cached.dest_seq, cached.hop_count)
            return [Unicast(from_id, rrep, self.env.pkt.rrep)]
        if pkt.hop_count + 1 >= self.env.aodv.ttl:
            return []
        fwd = replace(pkt, hop_count=pkt.hop_count + 1)
        return [Broadcast(fwd, self.env.pkt.rreq)]

    def _handle_rrep(self, pkt: AodvRrep, from_id: int, now: float) -> list:
        hops = pkt.hop_count + 1
        self._install(self.env.sink_id, from_id, hops, pkt.dest_seq, now)
        if self.id == pkt.origin:
            self.retries = None
            return self._flush_flows(now)
        reverse = self.valid_route(pkt.origin, now)
        if reverse is None:
            return []
        return [Unicast(reverse.next_hop, replace(pkt, hop_count=hops), self.env.pkt.rrep)]

    def _flush_flows(self, now: float) -> list:
        effects = []
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            if flow.failed:
                continue
            # forward_data may queue a packet again behind a new discovery;
            # that one waits for the next route rather than being retried here.
            for _ in range(len(flow.buffered)):
                effects.extend(self.forward_data(flow.buffered.popleft(), now))
        return effects

    def on_timer(self, kind: str, payload: tuple, now: float) -> list:
        if kind != "aodv_timeout":
            raise ValueError(f"unknown timer kind {kind!r}")
        (rreq_id,) = payload
        if self.retries is None or rreq_id != self.rreq_counter:
            return []  # the RREQ it guards is answered or superseded
        if self.valid_route(self.env.sink_id, now) is not None:
            self.retries = None
            return self._flush_flows(now)
        if self.retries >= self.env.retry.max_retries:
            self.retries = None
            return self._fail_flows(now)
        self.retries += 1
        return self._emit_rreq(now)

    def _fail_flows(self, now: float) -> list:
        for flow in self.flows.values():
            if not flow.failed:
                fail(self, flow, now)
        return []

    # ----- data plane -----

    def start_flow(self, flow_id: int, required_bandwidth: float, now: float) -> list:
        """Open a flow toward the sink; discovery waits for its first packet."""
        self.flows[flow_id] = AodvFlow(flow_id)
        return []

    def on_data_emit(self, flow_id: int, payload_bits: int, seq: int, now: float) -> list:
        flow = self.flows[flow_id]
        pkt = Data(flow_id, payload_bits, now, seq)
        if flow.failed:
            self.env.log(now, self.id, "drop", flow_id, seq, "flow_failed")
            return []
        if self.valid_route(self.env.sink_id, now) is not None:
            return self.forward_data(pkt, now)
        hold(self, flow, pkt, now)
        return self._ensure_discovery(now)

    def forward_data(self, pkt: Data, now: float) -> list:
        entry = self.routes.get(self.env.sink_id)
        if entry is not None and entry.valid and not self.env.alive(entry.next_hop):
            entry.valid = False
            self.env.log(now, self.id, "route_invalidate", self.env.sink_id, entry.next_hop)
        entry = self.valid_route(self.env.sink_id, now)
        if entry is None:
            flow = self.flows.get(pkt.flow_id)
            if flow is not None and not flow.failed:
                # Source-side: queue behind a fresh discovery.
                hold(self, flow, pkt, now)
                return self._ensure_discovery(now)
            self.env.log(now, self.id, "drop", pkt.flow_id, pkt.sequence, "no_route")
            return []
        entry.lifetime = max(entry.lifetime, now + self.env.aodv.active_route_timeout)
        bits = self.env.pkt.data_header + pkt.payload_size
        self.env.log(
            now, self.id, "data_route", pkt.flow_id, pkt.sequence, entry.dest_seq, entry.hop_count
        )
        return [Unicast(entry.next_hop, pkt, bits)]

    def on_packet(self, pkt, from_id: int, now: float) -> list:
        if isinstance(pkt, AodvRreq):
            return self._handle_rreq(pkt, from_id, now)
        if isinstance(pkt, AodvRrep):
            return self._handle_rrep(pkt, from_id, now)
        if isinstance(pkt, Data):
            return self.forward_data(pkt, now)
        raise TypeError(f"unexpected packet {pkt!r}")
