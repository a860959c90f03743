"""Analytical 802.11 DCF contention model.

Couples the per-virtual-slot transmission attempt probability with the
conditional collision probability through a two-equation nonlinear fixed
point, solves it once per distinct contender count of the reference
density x distance grid (`REFERENCE_DENSITIES` x `REFERENCE_DISTANCES`,
the grid every run uses), and serves runtime queries by one-dimensional
inverse-distance interpolation between the two nearest stored
configurations.

There is one collision form, the overlap form: the receiver-silenced disk
is taken as covered by the sender's carrier-sense disk, so a sender
collides when any of the expected n nodes inside both disks attempts in
the same virtual slot, p_c = 1 - (1 - p_a)^n.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .params import POSITIVE, at_least, check_params, param

_SINGULAR_EPS = 1e-12
_DAMPING = 0.5
_TOL = 1e-9  # residual |g(p) - p| a solution must reach
_DAMPED_STEPS = 9_930  # damped iterations before the bisection fallback


class SingularDenominatorError(ArithmeticError):
    """The attempt-probability denominator vanished (removable singularity)."""


class ConvergenceError(RuntimeError):
    """The fixed-point solver failed to reach its tolerance."""


@dataclass(frozen=True)
class DcfParams:
    """Contention-window and geometry parameters of the channel model.

    payload_duration is the airtime of a protocol header plus payload,
    virtual_slot the duration of one contention slot, both in seconds.
    The radii describe the sender carrier-sense disk and the disk the
    receiver silences when it transmits, in meters.
    """

    cw_min: int = param(32, check=at_least(1))
    cw_max: int = 1024
    payload_duration: float = param(4e-3, "payload_duration_s", POSITIVE)
    virtual_slot: float = param(50e-6, "virtual_slot_s", POSITIVE)
    carrier_sense_radius: float = param(550.0, "carrier_sense_radius_m", POSITIVE)
    interference_radius: float = param(250.0, "interference_radius_m", POSITIVE)

    def __post_init__(self):
        check_params(self)
        if self.cw_max < self.cw_min:
            raise ValueError(f"cw_max must be >= cw_min, got {self.cw_max} < {self.cw_min}")
        ratio, rem = divmod(self.cw_max, self.cw_min)
        if rem != 0 or ratio & (ratio - 1):
            raise ValueError(f"cw_max/cw_min must be a power of 2, got {self.cw_max}/{self.cw_min}")

    @property
    def backoff_stages(self) -> int:
        """Number of window doublings from cw_min up to cw_max."""
        return (self.cw_max // self.cw_min).bit_length() - 1


@dataclass(frozen=True)
class FixedPointSolution:
    p_a: float
    p_c: float
    residual: float
    iterations: int


def attempt_probability(p_c: float, params: DcfParams) -> float:
    """Per-virtual-slot transmission attempt probability at the given collision probability."""
    if not 0.0 <= p_c <= 1.0:
        raise ValueError(f"p_c must lie in [0, 1], got {p_c}")
    m = params.backoff_stages
    den = (1.0 - 2.0 * p_c) * (params.cw_max + 1) + p_c * params.cw_min * (1.0 - (2.0 * p_c) ** m)
    if abs(den) < _SINGULAR_EPS:
        raise SingularDenominatorError(f"attempt-probability denominator ~0 at p_c={p_c}")
    return min(1.0, max(0.0, (2.0 - 4.0 * p_c) / den))


def collision_probability(p_a: float, n: float) -> float:
    """Conditional collision probability of a sender attempting with p_a among n contenders.

    n is the expected, real-valued contender count from region_counts.
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"p_a must lie in [0, 1], got {p_a}")
    if n < 0:
        raise ValueError(f"contender count must be non-negative, got {n}")
    if n == 0.0:
        return 0.0
    return 1.0 - (1.0 - p_a) ** n


def lens_area(r1: float, r2: float, d: float) -> float:
    """Intersection area of two disks with radii r1, r2 at center separation d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    d1 = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    d2 = d - d1
    a1 = r1 * r1 * math.acos(max(-1.0, min(1.0, d1 / r1)))
    a1 -= d1 * math.sqrt(max(0.0, r1 * r1 - d1 * d1))
    a2 = r2 * r2 * math.acos(max(-1.0, min(1.0, d2 / r2)))
    a2 -= d2 * math.sqrt(max(0.0, r2 * r2 - d2 * d2))
    return a1 + a2


def region_counts(density: float, sender_receiver_distance: float, params: DcfParams) -> float:
    """Expected contenders of a link, from node density in nodes per m^2.

    They are the nodes inside both the sender's carrier-sense disk and the
    receiver's interference disk.  For a distance up to r_cs - r_i (300 m
    by default) that lens is the whole interference disk, so the count
    does not depend on the distance there.
    """
    if density < 0:
        raise ValueError(f"density must be non-negative, got {density}")
    if sender_receiver_distance < 0:
        raise ValueError(f"distance must be non-negative, got {sender_receiver_distance}")
    return density * lens_area(
        params.carrier_sense_radius, params.interference_radius, sender_receiver_distance)


def _coupled_map(p_c: float, n: float, params: DcfParams) -> float:
    """One application of the coupled system: p_c -> attempt -> collision."""
    try:
        p_a = attempt_probability(p_c, params)
    except SingularDenominatorError:
        # Removable singularity; step around it deterministically.
        nudge = 1e-9 if p_c <= 0.5 else -1e-9
        p_a = attempt_probability(p_c + nudge, params)
    return collision_probability(p_a, n)


def solve_fixed_point(n: float, params: DcfParams) -> FixedPointSolution:
    """Solve p_c = g(p_c) for the coupled attempt/collision system among n contenders.

    Runs a damped fixed-point iteration and falls back to bisection of
    g(p) - p on [0, 1] when damping stalls.  Deterministic for identical
    inputs.
    """

    def g(p: float) -> float:
        return _coupled_map(p, n, params)

    p = 0.0
    iterations = 0
    while iterations < _DAMPED_STEPS:
        iterations += 1
        target = g(p)
        residual = abs(target - p)
        if residual <= _TOL:
            return FixedPointSolution(attempt_probability(p, params), p, residual, iterations)
        p = (1.0 - _DAMPING) * p + _DAMPING * target
        p = min(1.0, max(0.0, p))

    # Bisection on h(p) = g(p) - p; h(0) >= 0 and h(1) <= 0 always bracket.
    lo, hi = 0.0, 1.0
    h_lo = g(lo) - lo
    for _ in range(64):
        iterations += 1
        mid = 0.5 * (lo + hi)
        h_mid = g(mid) - mid
        if h_mid == 0.0:
            lo = hi = mid
            break
        if (h_mid > 0.0) == (h_lo > 0.0):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    p = 0.5 * (lo + hi)
    residual = abs(g(p) - p)
    if residual > _TOL:
        raise ConvergenceError(
            f"fixed point not reached after {iterations} iterations (residual {residual:.3e})"
        )
    return FixedPointSolution(attempt_probability(p, params), p, residual, iterations)


@dataclass(frozen=True)
class CollisionTable:
    """Precomputed collision probabilities over density and distance axes.

    Densities are node counts per 1e6 m^2, distances in meters.  The grid
    is indexed [density_row][distance_column] and immutable once built.
    """

    densities: tuple[float, ...]
    distances: tuple[float, ...]
    p_c_grid: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for name, axis in (("density", self.densities), ("distance", self.distances)):
            if not axis or axis[0] < 0 or any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} axis must be non-empty, non-negative and increasing")
        if len(self.p_c_grid) != len(self.densities) or any(
            len(row) != len(self.distances) for row in self.p_c_grid
        ):
            raise ValueError("grid shape does not match the axes")
        for row in self.p_c_grid:
            for value in row:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"grid entries must lie in [0, 1], got {value}")


def build_table(
    densities: list[float] | tuple[float, ...],
    distances: list[float] | tuple[float, ...],
    params: DcfParams,
) -> CollisionTable:
    """Solve the collision probability of every axis combination.

    Density axis values are node counts per 1e6 m^2.  The fixed point is
    solved once per distinct contender count, and every cell with that
    count shares its p_c; a solver failure names the first such cell.  Up
    to r_cs - r_i (300 m by default) the contender region is the whole
    interference disk, so a row's cells there share one count and the row
    is flat in distance.
    """
    solved: dict[float, float] = {}  # p_c by contender count
    grid = []
    for density in densities:
        row = []
        for dist in distances:
            n = region_counts(density / 1e6, dist, params)
            p_c = solved.get(n)
            if p_c is None:
                try:
                    p_c = solved[n] = solve_fixed_point(n, params).p_c
                except (ConvergenceError, SingularDenominatorError) as exc:
                    raise ConvergenceError(
                        f"cell (density={density}, distance={dist}): {exc}") from exc
            row.append(p_c)
        grid.append(tuple(row))
    return CollisionTable(tuple(float(d) for d in densities), tuple(float(d) for d in distances), tuple(grid))


def _nearest_index(axis: tuple[float, ...], value: float) -> int:
    """Index of the axis entry nearest to value; ties go to the lower entry."""
    i = bisect_left(axis, value)
    if i == 0:
        return 0
    if i == len(axis):
        return len(axis) - 1
    return i - 1 if value - axis[i - 1] <= axis[i] - value else i


def lookup_p_c(table: CollisionTable, density: float, distance: float) -> float:
    """Collision probability for a configuration, interpolated from the table.

    The density is snapped to the nearest stored row (`density_row`), and
    the row is read at the distance (`interpolate_p_c`).
    """
    return interpolate_p_c(density_row(table, density), table.distances, distance)


def density_row(table: CollisionTable, density: float) -> tuple[float, ...]:
    """The p_c row of the stored density nearest to density."""
    return table.p_c_grid[_nearest_index(table.densities, density)]


def interpolate_p_c(row: tuple[float, ...], dist_axis: tuple[float, ...],
                    distance: float) -> float:
    """A table row's collision probability at a distance.

    The two nearest stored distances are combined by inverse-distance
    weighting.  Queries beyond the axis range clamp to the boundary entry.
    """
    if distance <= dist_axis[0]:
        return row[0]
    if distance >= dist_axis[-1]:
        return row[-1]
    hi = bisect_left(dist_axis, distance)
    if dist_axis[hi] == distance:
        return row[hi]
    lo = hi - 1
    w_lo = (dist_axis[hi] - distance) / (dist_axis[hi] - dist_axis[lo])
    return w_lo * row[lo] + (1.0 - w_lo) * row[hi]


def table_to_csv_text(table: CollisionTable) -> str:
    """Render the table as CSV with 6 decimal places per probability."""
    lines = ["density,distance_m,p_c"]
    for i, density in enumerate(table.densities):
        for j, dist in enumerate(table.distances):
            lines.append(f"{density:g},{dist:g},{table.p_c_grid[i][j]:.6f}")
    return "\n".join(lines) + "\n"


def write_table_csv(table: CollisionTable, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(table_to_csv_text(table))


# Reference operating points for the contention model: collision
# probabilities for four field densities (nodes per 1e6 m^2) and four
# sender-receiver separations (m).  Shipped as the targets a solved
# table is measured against.
REFERENCE_DENSITIES = (90.0, 100.0, 110.0, 120.0)
REFERENCE_DISTANCES = (100.0, 150.0, 200.0, 250.0)
REFERENCE_PC = (
    (0.1444, 0.2535, 0.3319, 0.3910),
    (0.1781, 0.2727, 0.3436, 0.4062),
    (0.1781, 0.2727, 0.3544, 0.4198),
    (0.1781, 0.2898, 0.3739, 0.4323),
)


def reference_table() -> CollisionTable:
    """The shipped reference grid as a lookup table."""
    return CollisionTable(REFERENCE_DENSITIES, REFERENCE_DISTANCES, REFERENCE_PC)
