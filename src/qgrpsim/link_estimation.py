"""Passive per-link available-bandwidth estimation.

Combines locally observed channel idle time, the peer's reported idle
time, and the analytical collision/backoff model into one derated
capacity figure per neighbor.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

# lookup_p_c stays importable from here: the benchmark's tracer counts lookups by this name.
from .dcf import DcfParams, lookup_p_c  # noqa: F401


@dataclass
class NeighborRecord:
    """What a node remembers about a neighbor from its last hello."""

    residual_energy: float
    idle_fraction: float
    last_heard: float


def is_fresh(rec: NeighborRecord | None, now: float, expiry: float) -> bool:
    """Whether a neighbor was heard within the last expiry seconds."""
    return rec is not None and now - rec.last_heard <= expiry


def estimate_bandwidth(
    local_idle_fraction: float,
    peer_idle_fraction: float,
    p_c: float,
    b_no: float,
    backoff_overhead: float,
) -> float:
    """Available bandwidth on a link, in bit/s.

    The nominal capacity is derated multiplicatively by both ends' idle
    fractions, the collision probability, and the expected backoff
    overhead; the result always lies in [0, b_no].
    """
    for name, v in (("local_idle_fraction", local_idle_fraction),
                    ("peer_idle_fraction", peer_idle_fraction)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if not 0.0 <= p_c <= 1.0:
        raise ValueError(f"p_c must lie in [0, 1], got {p_c}")
    if not 0.0 <= backoff_overhead <= 1.0:
        raise ValueError(f"backoff_overhead must lie in [0, 1], got {backoff_overhead}")
    if b_no <= 0:
        raise ValueError(f"b_no must be positive, got {b_no}")
    return (
        b_no
        * local_idle_fraction
        * peer_idle_fraction
        * (1.0 - p_c)
        * (1.0 - backoff_overhead)
    )


def mean_backoff_slots(p_c: float, params: DcfParams) -> float:
    """Expected backoff slots spent per delivered frame, over all retry stages."""
    if not 0.0 <= p_c < 1.0:
        raise ValueError(f"p_c must lie in [0, 1), got {p_c}")
    total = 0.0
    for stage in range(params.backoff_stages + 1):
        cw = min(params.cw_min * (1 << stage), params.cw_max)
        total += (p_c**stage) * (cw - 1) / 2.0
    return total


def refresh_estimates(
    now: float,
    local_idle_fraction: float,
    neighbors: dict[int, NeighborRecord],
    link_cost: Callable,
    b_no: float,
    expiry: float,
) -> dict[int, float]:
    """Available bandwidth toward each fresh neighbor, in bit/s.

    Neighbors that are not fresh (see is_fresh) get no estimate.
    link_cost(peer) gives the link's collision probability and backoff
    overhead.
    """
    estimates: dict[int, float] = {}
    for peer, rec in neighbors.items():
        if not is_fresh(rec, now, expiry):
            continue
        cost = link_cost(peer)
        estimates[peer] = estimate_bandwidth(
            local_idle_fraction, rec.idle_fraction, cost.p_c, b_no, cost.backoff_overhead
        )
    return estimates
