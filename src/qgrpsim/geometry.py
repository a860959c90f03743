"""Planar geometry for geographic forwarding decisions."""

from __future__ import annotations

import math
from collections import namedtuple


class DegeneratePositionError(ValueError):
    """An angle was requested for coincident positions."""


class Position(namedtuple("Position", "x y")):
    """A point in the 2-D deployment field, in meters: the tuple (x, y)."""

    __slots__ = ()

    def __new__(cls, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"position coordinates must be finite, got ({x}, {y})")
        return super().__new__(cls, x, y)


# Euclidean distance between two positions, in meters; the same float in either order.
distance = math.dist


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
