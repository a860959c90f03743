import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim import dcf
from qgrpsim.dcf import (
    REFERENCE_DENSITIES,
    REFERENCE_DISTANCES,
    REFERENCE_PC,
    CollisionTable,
    ConvergenceError,
    DcfParams,
    SingularDenominatorError,
    attempt_probability,
    build_table,
    collision_probability,
    lens_area,
    lookup_p_c,
    reference_table,
    region_counts,
    solve_fixed_point,
    table_to_csv_text,
    write_table_csv,
)
from conftest import solve_each_cell

DEFAULTS = DcfParams()


# ----- attempt probability -----

def test_attempt_probability_at_zero_collapses():
    assert attempt_probability(0.0, DEFAULTS) == 2 / 1025


def test_attempt_probability_derived_point():
    # Frozen from a 50-digit evaluation of the same rational expression.
    assert attempt_probability(0.3, DEFAULTS) == pytest.approx(
        0.0019099756653820425, rel=1e-14
    )


def test_attempt_probability_rejects_out_of_range():
    with pytest.raises(ValueError):
        attempt_probability(-0.1, DEFAULTS)
    with pytest.raises(ValueError):
        attempt_probability(1.1, DEFAULTS)


def test_attempt_probability_singular_near_half():
    with pytest.raises(SingularDenominatorError):
        attempt_probability(0.5, DEFAULTS)


def test_params_validation():
    with pytest.raises(ValueError):
        DcfParams(cw_min=0)
    with pytest.raises(ValueError):
        DcfParams(cw_min=32, cw_max=24)
    with pytest.raises(ValueError):
        DcfParams(cw_min=32, cw_max=96)  # ratio 3, not a power of two
    assert DcfParams(cw_min=32, cw_max=1024).backoff_stages == 5
    assert DcfParams(cw_min=16, cw_max=16).backoff_stages == 0


# ----- collision probability -----

def test_collision_probability_trivial_endpoints():
    assert collision_probability(0.0, 12.4) == 0.0
    assert collision_probability(1.0, 1.0) == 1.0


def test_collision_probability_derived_point():
    # 1 - 0.95 ** 12.4, frozen from a 50-digit evaluation.
    assert collision_probability(0.05, 12.4) == pytest.approx(0.47061369075097958, rel=1e-14)


def test_collision_probability_rejects_out_of_range():
    with pytest.raises(ValueError):
        collision_probability(1.5, 2.0)
    with pytest.raises(ValueError):
        collision_probability(0.5, -1.0)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=200.0),
)
def test_collision_probability_monotone(p1, p2, n1, n2):
    lo_p, hi_p = sorted((p1, p2))
    lo_n, hi_n = sorted((n1, n2))
    base = collision_probability(lo_p, lo_n)
    assert collision_probability(hi_p, lo_n) >= base
    assert collision_probability(lo_p, hi_n) >= base


# ----- region geometry -----

def test_region_counts_coincident_equal_radii():
    params = DcfParams(carrier_sense_radius=250.0, interference_radius=250.0)
    assert region_counts(1e-4, 0.0, params) == pytest.approx(1e-4 * math.pi * 250**2, rel=1e-12)


def test_region_counts_disjoint():
    params = DcfParams(carrier_sense_radius=250.0, interference_radius=250.0)
    assert region_counts(1e-4, 500.0, params) == 0.0
    assert region_counts(1e-4, 800.0, params) == 0.0


def test_region_counts_rejects_negative():
    with pytest.raises(ValueError):
        region_counts(-1.0, 10.0, DEFAULTS)
    with pytest.raises(ValueError):
        region_counts(1.0, -10.0, DEFAULTS)


def test_lens_area_equal_circles_at_radius_separation():
    # Closed form 2 R^2 (pi/3 - sqrt(3)/4); frozen from a 50-digit evaluation.
    assert lens_area(250.0, 250.0, 250.0) == pytest.approx(76773.10616304730, rel=1e-12)
    n = region_counts(
        1e-4, 250.0, DcfParams(carrier_sense_radius=250.0, interference_radius=250.0)
    )
    assert n == pytest.approx(7.677310616304730, rel=1e-12)


def test_lens_area_matches_monte_carlo():
    rng = np.random.default_rng(12345)
    for r1, r2, d in ((250.0, 250.0, 250.0), (550.0, 250.0, 420.0), (150.0, 250.0, 220.0)):
        n = 10_000_000
        # Sample the bounding box of the smaller disk; it contains the lens.
        cx = d if r2 <= r1 else 0.0
        r = min(r1, r2)
        xs = rng.uniform(cx - r, cx + r, n)
        ys = rng.uniform(-r, r, n)
        inside = ((xs**2 + ys**2) <= r1**2) & (((xs - d) ** 2 + ys**2) <= r2**2)
        estimate = inside.mean() * (2 * r) ** 2
        assert lens_area(r1, r2, d) == pytest.approx(estimate, rel=5e-3)


# ----- fixed point solver -----

def test_solve_isolated_sender():
    sol = solve_fixed_point(0.0, DEFAULTS)
    assert sol.p_c == 0.0
    assert sol.p_a == 2 / 1025
    assert sol.residual <= 1e-9


def test_solve_deterministic_bitwise():
    n = region_counts(1e-4, 150.0, DEFAULTS)
    a = solve_fixed_point(n, DEFAULTS)
    b = solve_fixed_point(n, DEFAULTS)
    assert (a.p_a, a.p_c, a.residual, a.iterations) == (b.p_a, b.p_c, b.residual, b.iterations)


def brute_force_crossing(n: float, params: DcfParams) -> float:
    """Identity crossing of the coupled map, located by a 1e6-point scan."""
    p = np.linspace(0.0, 1.0, 10**6)
    m = params.backoff_stages
    den = (1.0 - 2.0 * p) * (params.cw_max + 1) + p * params.cw_min * (1.0 - (2.0 * p) ** m)
    den = np.where(np.abs(den) < 1e-12, np.nan, den)
    p_a = np.clip((2.0 - 4.0 * p) / den, 0.0, 1.0)
    with np.errstate(invalid="ignore"):
        h = 1.0 - (1.0 - p_a) ** n - p
    finite = np.isfinite(h)
    sign = np.signbit(h)
    flips = np.nonzero((sign[:-1] != sign[1:]) & finite[:-1] & finite[1:])[0]
    if len(flips) == 0:
        return float(p[np.nanargmin(np.abs(h))])
    i = flips[0]
    return float(0.5 * (p[i] + p[i + 1]))


def test_solve_matches_brute_force_scan():
    for density, dist in ((90.0, 100.0), (120.0, 250.0), (50.0, 400.0)):
        n = region_counts(density / 1e6, dist, DEFAULTS)
        sol = solve_fixed_point(n, DEFAULTS)
        assert abs(sol.p_c - brute_force_crossing(n, DEFAULTS)) <= 1e-4


# ----- table construction -----

def test_build_table_shape_and_monotonicity():
    table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, DEFAULTS)
    assert len(table.p_c_grid) == 4 and all(len(r) == 4 for r in table.p_c_grid)
    for row in table.p_c_grid:
        assert all(b >= a for a, b in zip(row, row[1:]))
    for j in range(4):
        col = [table.p_c_grid[i][j] for i in range(4)]
        assert all(b >= a for a, b in zip(col, col[1:]))


def test_build_table_single_cell_equals_direct_solve():
    table = build_table([100.0], [150.0], DEFAULTS)
    direct = solve_fixed_point(region_counts(100.0 / 1e6, 150.0, DEFAULTS), DEFAULTS)
    assert table.p_c_grid == ((direct.p_c,),)


# Every cell of the solved table, pinned: 7 densities x 9 distances.  The
# second parameter set reaches the partial-lens branch of lens_area, which the
# default geometry never reaches for d <= 300 m.
PIN_DENSITIES = (50.0, 90.0, 100.0, 110.0, 120.0, 200.0, 400.0)
PIN_DISTANCES = (0.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 700.0)
PARTIAL_LENS = DcfParams(cw_min=16, cw_max=256, carrier_sense_radius=400.0,
                         interference_radius=300.0)


@pytest.mark.parametrize("params,digest", [
    (DEFAULTS, "b04142ad0edd036573a25740c59b9a87621cf774f25c074ef4c80b809e3d1820"),
    (PARTIAL_LENS, "58f682b440e978b22748269cde3d761bb522eaa39afbf848540097b373570fc2"),
], ids=["defaults", "partial-lens"])
def test_solved_table_is_pinned(params, digest):
    """sha256 of the grid's repr: every solved p_c is fixed bit for bit."""
    grid = build_table(PIN_DENSITIES, PIN_DISTANCES, params).p_c_grid
    assert hashlib.sha256(repr(grid).encode()).hexdigest() == digest


# On the default geometry every distance up to 300 m shares its row's count; with
# the partial lens the counts vary with distance, and every row's 700 m cell has count 0.
@pytest.mark.parametrize("densities,distances,params,distinct", [
    (REFERENCE_DENSITIES, REFERENCE_DISTANCES, DEFAULTS, 4),
    (PIN_DENSITIES, PIN_DISTANCES, DEFAULTS, 21),
    (PIN_DENSITIES, PIN_DISTANCES, PARTIAL_LENS, 43),
], ids=["default-axes", "pin-defaults", "pin-partial-lens"])
def test_build_table_solves_each_contender_count_once(monkeypatch, densities, distances,
                                                      params, distinct):
    """One solve per distinct count, and the grid of a solve per cell, bit for bit."""
    solved = []

    def counting_solve(n, params):
        solved.append(n)
        return solve_fixed_point(n, params)

    monkeypatch.setattr(dcf, "solve_fixed_point", counting_solve)
    table = build_table(densities, distances, params)
    counts = {region_counts(density / 1e6, dist, params)
              for density in densities for dist in distances}
    assert len(solved) == len(counts) == distinct
    assert set(solved) == counts
    reference = solve_each_cell(densities, distances, params)
    assert (table.densities, table.distances) == (reference.densities, reference.distances)
    assert repr(table.p_c_grid) == repr(reference.p_c_grid)


@pytest.mark.parametrize("params,first_cell,later_cell", [
    (DEFAULTS, (100.0, 0.0), (100.0, 300.0)),
    (PARTIAL_LENS, (50.0, 700.0), (400.0, 700.0)),
], ids=["one-row", "across-rows"])
def test_convergence_error_names_the_first_cell_with_the_count(monkeypatch, params,
                                                               first_cell, later_cell):
    failing_n = region_counts(first_cell[0] / 1e6, first_cell[1], params)
    assert region_counts(later_cell[0] / 1e6, later_cell[1], params) == failing_n

    def failing_solve(n, params):
        if n == failing_n:
            raise ConvergenceError("no fixed point")
        return solve_fixed_point(n, params)

    monkeypatch.setattr(dcf, "solve_fixed_point", failing_solve)
    with pytest.raises(ConvergenceError) as excinfo:
        build_table(PIN_DENSITIES, PIN_DISTANCES, params)
    density, dist = first_cell
    assert str(excinfo.value) == f"cell (density={density}, distance={dist}): no fixed point"


def test_table_validation():
    with pytest.raises(ValueError):
        CollisionTable((), (1.0,), ())
    with pytest.raises(ValueError):
        CollisionTable((1.0, 1.0), (1.0,), ((0.1,), (0.2,)))
    with pytest.raises(ValueError):
        CollisionTable((1.0, 2.0), (1.0,), ((0.1,), (1.2,)))


# ----- interpolation -----

def test_lookup_exact_on_grid_points():
    table = reference_table()
    for i, density in enumerate(REFERENCE_DENSITIES):
        for j, dist in enumerate(REFERENCE_DISTANCES):
            assert lookup_p_c(table, density, dist) == REFERENCE_PC[i][j]


def test_lookup_midpoint_equal_weights():
    table = reference_table()
    assert lookup_p_c(table, 90.0, 125.0) == pytest.approx((0.1444 + 0.2535) / 2, abs=1e-15)


def test_lookup_boundary_clamp():
    table = reference_table()
    assert lookup_p_c(table, 90.0, 50.0) == 0.1444
    assert lookup_p_c(table, 90.0, 900.0) == 0.3910


def test_lookup_density_snaps_to_nearest_row():
    table = reference_table()
    assert lookup_p_c(table, 91.2, 100.0) == 0.1444
    assert lookup_p_c(table, 104.9, 100.0) == 0.1781
    # Exact midpoint ties snap to the lower row.
    assert lookup_p_c(table, 95.0, 150.0) == 0.2535


@settings(max_examples=200)
@given(
    st.floats(min_value=80.0, max_value=130.0),
    st.floats(min_value=50.0, max_value=300.0),
)
def test_lookup_stays_in_convex_hull(density, dist):
    table = reference_table()
    value = lookup_p_c(table, density, dist)
    flat = [v for row in table.p_c_grid for v in row]
    assert min(flat) <= value <= max(flat)


# ----- persistence -----

def test_table_csv_round_trip(tmp_path):
    table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, DEFAULTS)
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    text = path.read_text()
    assert text == table_to_csv_text(table)
    lines = text.splitlines()
    assert lines[0] == "density,distance_m,p_c"
    assert len(lines) == 17
    cells = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert [(den, dist) for den, dist, _ in cells] == [
        (den, dist) for den in table.densities for dist in table.distances]
    for (_, _, p_c), want in zip(cells, (v for row in table.p_c_grid for v in row)):
        assert p_c == pytest.approx(want, abs=5e-7)


# ----- no clamping over the solved grid -----

def test_clamp_flag_false_across_solved_grid():
    # Strictly inside (0, 1): the [0, 1] clamp of attempt_probability never fires.
    table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, DEFAULTS)
    for row in table.p_c_grid:
        for p_c in row:
            assert 0.0 < attempt_probability(p_c, DEFAULTS) < 1.0
