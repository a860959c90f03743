import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim.geometry import (
    DegeneratePositionError,
    Position,
    deviation_angle,
    distance,
    is_forward_progress,
)

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_distance_coincident():
    assert distance(Position(0, 0), Position(0, 0)) == 0.0


def test_distance_3_4_5():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0


def test_distance_matches_high_precision_oracle():
    from mpmath import mp, mpf

    mp.dps = 40
    rng = random.Random(7)
    for _ in range(200):
        ax, ay, bx, by = (rng.uniform(-1e5, 1e5) for _ in range(4))
        got = distance(Position(ax, ay), Position(bx, by))
        want = mp.sqrt((mpf(bx) - mpf(ax)) ** 2 + (mpf(by) - mpf(ay)) ** 2)
        assert abs(got - float(want)) <= 1e-12 * max(1.0, float(want))


def test_distance_symmetric():
    a, b = Position(1.5, -2.0), Position(-3.25, 9.0)
    assert distance(a, b) == distance(b, a)


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(math.nan, 0.0)
    with pytest.raises(ValueError):
        Position(0.0, math.inf)


def test_deviation_angle_collinear_toward_sink():
    assert deviation_angle(Position(0, 0), Position(5, 0), Position(10, 0)) == 0.0


def test_deviation_angle_perpendicular():
    assert deviation_angle(Position(0, 0), Position(0, 5), Position(10, 0)) == math.pi / 2


def test_deviation_angle_opposite():
    assert deviation_angle(Position(0, 0), Position(-5, 0), Position(10, 0)) == math.pi


over_both_functions = pytest.mark.parametrize("fn", [deviation_angle, is_forward_progress],
                                          ids=lambda fn: fn.__name__)


@over_both_functions
def test_degenerate_neighbor(fn):
    with pytest.raises(DegeneratePositionError, match="neighbor coincides"):
        fn(Position(0, 0), Position(0, 0), Position(10, 0))


@over_both_functions
def test_degenerate_sink(fn):
    with pytest.raises(DegeneratePositionError, match="sink coincide"):
        fn(Position(0, 0), Position(5, 0), Position(0, 0))


def test_forward_progress_boundary_inclusive():
    assert is_forward_progress(Position(0, 0), Position(0, 5), Position(10, 0))  # perpendicular
    assert not is_forward_progress(Position(0, 0), Position(-5, 0), Position(10, 0))
    assert is_forward_progress(Position(0, 0), Position(5, 0), Position(10, 0))  # collinear


@settings(max_examples=200)
@given(coord, coord, coord, coord, coord, coord,
       st.floats(min_value=-math.pi, max_value=math.pi),
       coord, coord)
def test_deviation_angle_rigid_motion_invariant(sx, sy, nx, ny, kx, ky, phi, tx, ty):
    base = (Position(sx, sy), Position(nx, ny), Position(kx, ky))
    if (nx, ny) == (sx, sy) or (kx, ky) == (sx, sy):
        return
    # Keep the configuration away from degeneracy so the tolerance is meaningful.
    legs = distance(base[0], base[1]), distance(base[0], base[2])
    if min(legs) < 1e-3:
        return

    c, s = math.cos(phi), math.sin(phi)

    def move(p: Position) -> Position:
        return Position(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty)

    moved = tuple(map(move, base))
    if moved[1] == moved[0] or moved[2] == moved[0]:
        return
    scale = max(1.0, *legs, abs(tx), abs(ty))
    # Rounding in the transformed coordinates perturbs the angle by about
    # eps * (scale / leg length).
    tol = max(1e-9, 1e-12 * scale / min(legs))
    assert deviation_angle(*moved) == pytest.approx(deviation_angle(*base), abs=tol)


@settings(max_examples=300)
@given(coord, coord, coord, coord, coord, coord)
def test_forward_progress_matches_dot_product_sign(sx, sy, nx, ny, kx, ky):
    if (nx, ny) == (sx, sy) or (kx, ky) == (sx, sy):
        return
    dot = (kx - sx) * (nx - sx) + (ky - sy) * (ny - sy)
    assert is_forward_progress(Position(sx, sy), Position(nx, ny), Position(kx, ky)) == (dot >= 0.0)
