import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim.dcf import (
    REFERENCE_DENSITIES,
    REFERENCE_DISTANCES,
    REFERENCE_PC,
    CollisionTable,
    DcfParams,
    RegionCounts,
    SingularDenominatorError,
    attempt_probability,
    attempt_probability_detail,
    build_table,
    collision_probability,
    fit_carrier_sense_radius,
    lens_area,
    lookup_p_c,
    read_table_csv,
    reference_table,
    region_counts,
    solve_fixed_point,
    write_table_csv,
)

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
    counts = RegionCounts(12.4, 3.0)
    assert collision_probability(0.0, counts, DEFAULTS) == 0.0
    assert collision_probability(1.0, RegionCounts(1.0, 0.0), DEFAULTS) == 1.0


def test_collision_probability_derived_point():
    # 1 - 0.95 ** 12.4, frozen from a 50-digit evaluation.
    got = collision_probability(0.05, RegionCounts(12.4, 0.0), DEFAULTS)
    assert got == pytest.approx(0.47061369075097958, rel=1e-14)


def test_collision_probability_full_form_adds_weighted_exponent():
    counts = RegionCounts(2.0, 1.5)
    reduced = collision_probability(0.01, counts, DEFAULTS, reduced=True)
    full = collision_probability(0.01, counts, DEFAULTS, reduced=False)
    exponent = 2.0 + 1.5 * DEFAULTS.payload_duration / DEFAULTS.virtual_slot
    assert full == pytest.approx(1.0 - 0.99**exponent, rel=1e-12)
    assert full > reduced


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
    base = collision_probability(lo_p, RegionCounts(lo_n, 0.0), DEFAULTS)
    assert collision_probability(hi_p, RegionCounts(lo_n, 0.0), DEFAULTS) >= base
    assert collision_probability(lo_p, RegionCounts(hi_n, 0.0), DEFAULTS) >= base


# ----- region geometry -----

def test_region_counts_coincident_equal_radii():
    params = DcfParams(carrier_sense_radius=250.0, interference_radius=250.0)
    counts = region_counts(1e-4, 0.0, params)
    assert counts.n_cs_and_in == pytest.approx(1e-4 * math.pi * 250**2, rel=1e-12)
    assert counts.n_cs_minus_in == pytest.approx(0.0, abs=1e-9)


def test_region_counts_disjoint():
    params = DcfParams(carrier_sense_radius=250.0, interference_radius=250.0)
    assert region_counts(1e-4, 500.0, params).n_cs_and_in == 0.0
    assert region_counts(1e-4, 800.0, params).n_cs_and_in == 0.0


def test_region_counts_rejects_negative():
    with pytest.raises(ValueError):
        region_counts(-1.0, 10.0, DEFAULTS)
    with pytest.raises(ValueError):
        region_counts(1.0, -10.0, DEFAULTS)


def test_lens_area_equal_circles_at_radius_separation():
    # Closed form 2 R^2 (pi/3 - sqrt(3)/4); frozen from a 50-digit evaluation.
    assert lens_area(250.0, 250.0, 250.0) == pytest.approx(76773.10616304730, rel=1e-12)
    counts = region_counts(
        1e-4, 250.0, DcfParams(carrier_sense_radius=250.0, interference_radius=250.0)
    )
    assert counts.n_cs_and_in == pytest.approx(7.677310616304730, rel=1e-12)


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
    sol = solve_fixed_point(RegionCounts(0.0, 0.0), DEFAULTS)
    assert sol.p_c == 0.0
    assert sol.p_a == 2 / 1025
    assert sol.residual <= 1e-9


def test_solve_validates_arguments():
    with pytest.raises(ValueError):
        solve_fixed_point(RegionCounts(1.0, 0.0), DEFAULTS, tol=0.0)
    with pytest.raises(ValueError):
        solve_fixed_point(RegionCounts(1.0, 0.0), DEFAULTS, max_iter=0)


def test_solve_deterministic_bitwise():
    counts = region_counts(1e-4, 150.0, DEFAULTS)
    a = solve_fixed_point(counts, DEFAULTS)
    b = solve_fixed_point(counts, DEFAULTS)
    assert (a.p_a, a.p_c, a.residual, a.iterations) == (b.p_a, b.p_c, b.residual, b.iterations)


def brute_force_crossing(counts: RegionCounts, params: DcfParams, reduced: bool) -> float:
    """Identity crossing of the coupled map, located by a 1e6-point scan."""
    p = np.linspace(0.0, 1.0, 10**6)
    m = params.backoff_stages
    den = (1.0 - 2.0 * p) * (params.cw_max + 1) + p * params.cw_min * (1.0 - (2.0 * p) ** m)
    den = np.where(np.abs(den) < 1e-12, np.nan, den)
    p_a = np.clip((2.0 - 4.0 * p) / den, 0.0, 1.0)
    exponent = counts.n_cs_and_in
    if not reduced:
        exponent += counts.n_cs_minus_in * params.payload_duration / params.virtual_slot
    with np.errstate(invalid="ignore"):
        h = 1.0 - (1.0 - p_a) ** exponent - p
    finite = np.isfinite(h)
    sign = np.signbit(h)
    flips = np.nonzero((sign[:-1] != sign[1:]) & finite[:-1] & finite[1:])[0]
    if len(flips) == 0:
        return float(p[np.nanargmin(np.abs(h))])
    i = flips[0]
    return float(0.5 * (p[i] + p[i + 1]))


def test_solve_matches_brute_force_scan():
    for density, dist in ((90.0, 100.0), (120.0, 250.0), (50.0, 400.0)):
        counts = region_counts(density / 1e6, dist, DEFAULTS)
        sol = solve_fixed_point(counts, DEFAULTS)
        assert abs(sol.p_c - brute_force_crossing(counts, DEFAULTS, True)) <= 1e-4


def test_solve_full_form_matches_brute_force_scan():
    params = dataclasses.replace(DEFAULTS, carrier_sense_radius=163.0)
    counts = region_counts(100.0 / 1e6, 200.0, params)
    sol = solve_fixed_point(counts, params, reduced=False)
    assert abs(sol.p_c - brute_force_crossing(counts, params, False)) <= 1e-4


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
    assert text.splitlines()[0] == "density,distance_m,p_c"
    assert len(text.splitlines()) == 17
    back = read_table_csv(path)
    assert back.densities == table.densities
    assert back.distances == table.distances
    for i in range(4):
        for j in range(4):
            assert back.p_c_grid[i][j] == pytest.approx(table.p_c_grid[i][j], abs=5e-7)
    # Lossless at the written precision: a second round trip is identical.
    write_table_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == text


def test_table_csv_rejects_missing_cells(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("density,distance_m,p_c\n90,100,0.1\n90,150,0.2\n100,100,0.3\n")
    with pytest.raises(ValueError):
        read_table_csv(path)


# ----- clamp flag over the solved grid -----

def test_clamp_flag_false_across_solved_grid():
    table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, DEFAULTS)
    for row in table.p_c_grid:
        for p_c in row:
            _, clamped = attempt_probability_detail(p_c, DEFAULTS)
            assert not clamped


# ----- calibration -----

def test_calibration_is_deterministic_and_monotone():
    a = fit_carrier_sense_radius(DEFAULTS)
    b = fit_carrier_sense_radius(DEFAULTS)
    assert a.radius == b.radius
    assert a.table.p_c_grid == b.table.p_c_grid
    grid = a.table.p_c_grid
    for row in grid:
        assert all(y >= x for x, y in zip(row, row[1:]))
    for j in range(len(grid[0])):
        col = [grid[i][j] for i in range(len(grid))]
        assert all(y >= x for x, y in zip(col, col[1:]))
