"""Planar geometry for geographic forwarding decisions."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DegeneratePositionError(ValueError):
    """An angle was requested for coincident positions."""


@dataclass(frozen=True)
class Position:
    """A point in the 2-D deployment field, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions, in meters."""
    return math.hypot(b.x - a.x, b.y - a.y)


def _offsets(self_pos: Position, neighbor_pos: Position,
             sink_pos: Position) -> tuple[float, float, float, float]:
    """Sink and neighbor offsets (sx, sy, nx, ny) from self_pos; coincident positions raise."""
    sx = sink_pos.x - self_pos.x
    sy = sink_pos.y - self_pos.y
    nx = neighbor_pos.x - self_pos.x
    ny = neighbor_pos.y - self_pos.y
    if sx == 0.0 and sy == 0.0:
        raise DegeneratePositionError("deciding node and sink coincide")
    if nx == 0.0 and ny == 0.0:
        raise DegeneratePositionError("neighbor coincides with deciding node")
    return sx, sy, nx, ny


def deviation_angle(self_pos: Position, neighbor_pos: Position, sink_pos: Position) -> float:
    """Angle in [0, pi] at self_pos between the sink direction and the neighbor direction.

    Zero means the neighbor sits exactly on the straight line from the
    deciding node toward the sink; pi means it lies in the opposite
    direction.
    """
    sx, sy, nx, ny = _offsets(self_pos, neighbor_pos, sink_pos)
    return math.atan2(abs(sx * ny - sy * nx), sx * nx + sy * ny)


def is_forward_progress(self_pos: Position, neighbor_pos: Position, sink_pos: Position) -> bool:
    """True when, seen from self_pos, the neighbor deviates at most pi/2 from the sink direction.

    Evaluated through the dot-product sign, which is the same predicate in
    exact arithmetic but does not round away near-perpendicular cases the
    way the angle itself can.
    """
    sx, sy, nx, ny = _offsets(self_pos, neighbor_pos, sink_pos)
    return sx * nx + sy * ny >= 0.0
