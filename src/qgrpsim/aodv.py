"""Simplified AODV baseline: flooded route discovery, shortest hop count.

Keeps the RFC 3561 essentials needed for a fair benchmark (flooded RREQs
with duplicate suppression, destination sequence numbers, reverse-path
RREPs, route lifetimes) and deliberately omits hello-based connectivity,
local repair, gratuitous RREPs, and expanding-ring search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .actions import Broadcast, StartTimer, Unicast
from .qgrp import Data


@dataclass
class AodvRouteEntry:
    destination: int
    next_hop: int
    hop_count: int
    dest_seq: int
    valid: bool
    lifetime: float


@dataclass(frozen=True)
class AodvRreq:
    source: int
    rreq_id: int
    destination: int
    origin_seq: int
    dest_seq_known: int
    hop_count: int


@dataclass(frozen=True)
class AodvRrep:
    origin: int
    destination: int
    dest_seq: int
    hop_count: int


@dataclass
class AodvFlow:
    flow_id: int
    destination: int
    buffered: deque = field(default_factory=deque)
    failed: bool = False


@dataclass
class PendingDiscovery:
    destination: int
    retries_used: int = 0
    timer_gen: int = 0


class AodvNode:
    """Protocol state for one sensor running the AODV baseline."""

    def __init__(self, node_id: int, env):
        self.id = node_id
        self.env = env
        self.is_sink = node_id == env.sink_id
        self.routes: dict[int, AodvRouteEntry] = {}
        self.flows: dict[int, AodvFlow] = {}
        self.pending: dict[int, PendingDiscovery] = {}
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
        lifetime = now + self.env.aodv_route_timeout
        entry = self.routes.get(dest)
        if (
            entry is None
            or not entry.valid
            or entry.lifetime < now
            or dest_seq > entry.dest_seq
            or (dest_seq == entry.dest_seq and hop_count < entry.hop_count)
        ):
            self.routes[dest] = AodvRouteEntry(dest, next_hop, hop_count, dest_seq, True, lifetime)
            self.env.log(now, self.id, "route_install", dest, next_hop, dest_seq, hop_count)
        elif dest_seq == entry.dest_seq and hop_count == entry.hop_count and next_hop == entry.next_hop:
            entry.lifetime = max(entry.lifetime, lifetime)

    # ----- discovery -----

    def _ensure_discovery(self, dest: int, now: float) -> list:
        if dest in self.pending:
            return []
        self.pending[dest] = PendingDiscovery(dest)
        return self._emit_rreq(dest, now)

    def _emit_rreq(self, dest: int, now: float) -> list:
        pending = self.pending[dest]
        self.rreq_counter += 1
        self.own_seq += 1
        entry = self.routes.get(dest)
        known = entry.dest_seq if entry is not None else 0
        pkt = AodvRreq(self.id, self.rreq_counter, dest, self.own_seq, known, 0)
        self.seen.add((self.id, self.rreq_counter))
        pending.timer_gen += 1
        return [
            Broadcast(pkt, self.env.aodv_rreq_bits),
            StartTimer(self.env.rrep_wait, "aodv_timeout", (dest, pending.timer_gen)),
        ]

    def _handle_rreq(self, pkt: AodvRreq, from_id: int, now: float) -> list:
        key = (pkt.source, pkt.rreq_id)
        if key in self.seen:
            return []
        self.seen.add(key)
        self._install(pkt.source, from_id, pkt.hop_count + 1, pkt.origin_seq, now)
        if self.id == pkt.destination:
            self.own_seq = max(self.own_seq, pkt.dest_seq_known) + 1
            rrep = AodvRrep(pkt.source, self.id, self.own_seq, 0)
            return [Unicast(from_id, rrep, self.env.aodv_rrep_bits)]
        cached = self.valid_route(pkt.destination, now)
        if cached is not None and cached.dest_seq >= pkt.dest_seq_known:
            rrep = AodvRrep(pkt.source, pkt.destination, cached.dest_seq, cached.hop_count)
            return [Unicast(from_id, rrep, self.env.aodv_rrep_bits)]
        if pkt.hop_count + 1 >= self.env.aodv_ttl:
            return []
        fwd = replace(pkt, hop_count=pkt.hop_count + 1)
        return [Broadcast(fwd, self.env.aodv_rreq_bits)]

    def _handle_rrep(self, pkt: AodvRrep, from_id: int, now: float) -> list:
        hops = pkt.hop_count + 1
        self._install(pkt.destination, from_id, hops, pkt.dest_seq, now)
        if self.id == pkt.origin:
            pending = self.pending.pop(pkt.destination, None)
            if pending is not None:
                pending.timer_gen += 1
            return self._flush_flows(pkt.destination, now)
        reverse = self.valid_route(pkt.origin, now)
        if reverse is None:
            return []
        return [Unicast(reverse.next_hop, replace(pkt, hop_count=hops), self.env.aodv_rrep_bits)]

    def _flush_flows(self, dest: int, now: float) -> list:
        effects = []
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            if flow.destination != dest or flow.failed:
                continue
            # forward_data may queue a packet again behind a new discovery;
            # that one waits for the next route rather than being retried here.
            for _ in range(len(flow.buffered)):
                effects.extend(self.forward_data(flow.buffered.popleft(), now))
        return effects

    def on_timer(self, kind: str, payload: tuple, now: float) -> list:
        if kind != "aodv_timeout":
            raise ValueError(f"unknown timer kind {kind!r}")
        dest, gen = payload
        pending = self.pending.get(dest)
        if pending is None or pending.timer_gen != gen:
            return []
        if self.valid_route(dest, now) is not None:
            del self.pending[dest]
            return self._flush_flows(dest, now)
        if pending.retries_used >= self.env.max_retries:
            del self.pending[dest]
            return self._fail_flows(dest, now)
        pending.retries_used += 1
        return self._emit_rreq(dest, now)

    def _fail_flows(self, dest: int, now: float) -> list:
        for flow in self.flows.values():
            if flow.destination != dest or flow.failed:
                continue
            flow.failed = True
            while flow.buffered:
                pkt = flow.buffered.popleft()
                self.env.log(now, self.id, "drop", pkt.flow_id, pkt.sequence, "flow_failed")
            self.env.log(now, self.id, "flow_failed", flow.flow_id)
        return []

    # ----- data plane -----

    def on_data_emit(self, flow_id: int, payload_bits: int, seq: int, now: float) -> list:
        flow = self.flows.setdefault(flow_id, AodvFlow(flow_id, self.env.sink_id))
        pkt = Data(flow_id, payload_bits, now, seq)
        if flow.failed:
            self.env.log(now, self.id, "drop", flow_id, seq, "flow_failed")
            return []
        if self.valid_route(flow.destination, now) is not None:
            return self.forward_data(pkt, now)
        if len(flow.buffered) >= self.env.buffer_capacity:
            old = flow.buffered.popleft()
            self.env.log(now, self.id, "drop", flow_id, old.sequence, "buffer_overflow")
        flow.buffered.append(pkt)
        return self._ensure_discovery(flow.destination, now)

    def forward_data(self, pkt: Data, now: float) -> list:
        entry = self.routes.get(self.env.sink_id)
        if entry is not None and entry.valid and not self.env.alive(entry.next_hop):
            entry.valid = False
            self.env.log(now, self.id, "route_invalidate", entry.destination, entry.next_hop)
            entry = None
        if entry is None or not entry.valid or entry.lifetime < now:
            flow = self.flows.get(pkt.flow_id)
            if flow is not None and not flow.failed:
                # Source-side: queue behind a fresh discovery.
                if len(flow.buffered) >= self.env.buffer_capacity:
                    old = flow.buffered.popleft()
                    self.env.log(now, self.id, "drop", pkt.flow_id, old.sequence, "buffer_overflow")
                flow.buffered.append(pkt)
                return self._ensure_discovery(flow.destination, now)
            self.env.log(now, self.id, "drop", pkt.flow_id, pkt.sequence, "no_route")
            return []
        entry.lifetime = max(entry.lifetime, now + self.env.aodv_route_timeout)
        bits = self.env.pkt_bits["data_header"] + pkt.payload_size
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
            if self.is_sink:
                self.env.log(
                    now, self.id, "deliver", pkt.flow_id, pkt.sequence, pkt.origin_timestamp,
                    pkt.payload_size,
                )
                return []
            return self.forward_data(pkt, now)
        raise TypeError(f"unexpected packet {pkt!r}")
