"""What protocol handlers and the engine share.

The effect records a handler hands back to the engine, the data packet
both protocols carry, and the two source-side data-plane rules they both
follow: `hold` buffers a packet until a route exists, and `fail` drains
that buffer when the flow gives up.  The engine logs `origin` when a
packet is emitted and `deliver` when it reaches the sink; a protocol only
routes it in between.
"""

from __future__ import annotations

from dataclasses import dataclass


# Effect records are slotted, not frozen: only the engine reads them, once, and a frozen
# record takes about three times as long to build.
@dataclass(slots=True)
class Unicast:
    to: int
    packet: object
    bits: int


@dataclass(slots=True)
class Broadcast:
    packet: object
    bits: int


@dataclass(slots=True)
class StartTimer:
    delay: float
    kind: str
    payload: tuple


@dataclass(frozen=True)
class Data:
    flow_id: int
    payload_size: int
    origin_timestamp: float
    sequence: int


def hold(node, flow, pkt: Data, now: float) -> None:
    """Buffer pkt at its source node; a full buffer drops its oldest packet first."""
    if len(flow.buffered) >= node.env.retry.buffer_capacity:
        old = flow.buffered.popleft()
        node.env.log(now, node.id, "drop", pkt.flow_id, old.sequence, "buffer_overflow")
    flow.buffered.append(pkt)


def fail(node, flow, now: float) -> None:
    """Give up on flow: drop every buffered packet, then log the flow_failed row."""
    flow.failed = True
    while flow.buffered:
        pkt = flow.buffered.popleft()
        node.env.log(now, node.id, "drop", pkt.flow_id, pkt.sequence, "flow_failed")
    node.env.log(now, node.id, "flow_failed", flow.flow_id)
