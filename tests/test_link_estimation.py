import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim.dcf import DcfParams, lookup_p_c, reference_table
from qgrpsim.geometry import Position, distance
from qgrpsim.link_estimation import (
    NeighborRecord,
    estimate_bandwidth,
    mean_backoff_slots,
    refresh_estimates,
)
from qgrpsim.simulator import build_link_cost

DEFAULTS = DcfParams()
B_NO = 2e6

fraction = st.floats(min_value=0.0, max_value=1.0)


def cost_at(p_c, dist=100.0):
    return build_link_cost(p_c, dist, DEFAULTS, 50e-9, 100e-12)


def reference_links(positions):
    """link_cost(peer) over the reference grid at density 100, from the origin."""
    table = reference_table()

    def link_cost(peer):
        dist = distance(Position(0, 0), positions[peer])
        return cost_at(lookup_p_c(table, 100.0, dist), dist)

    return link_cost


def test_fully_idle_link_reaches_nominal_capacity():
    assert estimate_bandwidth(1.0, 1.0, 0.0, B_NO, 0.0) == B_NO


def test_saturated_sender_estimates_zero():
    assert estimate_bandwidth(0.0, 1.0, 0.0, B_NO, 0.0) == 0.0


def test_estimate_derived_product():
    # 2e6 * 0.8 * 0.9 * (1 - 0.2727) * 0.95, with the collision value taken
    # from the reference grid cell (density 100, 150 m).
    p_c = reference_table().p_c_grid[1][1]
    assert p_c == 0.2727
    got = estimate_bandwidth(0.8, 0.9, p_c, B_NO, 0.05)
    assert got == pytest.approx(2e6 * 0.8 * 0.9 * 0.7273 * 0.95, rel=1e-12)


def test_estimate_validates_inputs():
    for local, peer, p_c, b_no, overhead in [
        (1.0, 1.0, -0.1, B_NO, 0.0),
        (1.0, 1.0, 0.0, B_NO, 1.5),
        (1.0, 1.0, 0.0, 0.0, 0.0),
        (1.2, 1.0, 0.0, B_NO, 0.0),
        (-0.1, 1.0, 0.0, B_NO, 0.0),
        (1.0, 1.2, 0.0, B_NO, 0.0),
        (1.0, -0.1, 0.0, B_NO, 0.0),
    ]:
        with pytest.raises(ValueError):
            estimate_bandwidth(local, peer, p_c, b_no, overhead)


@settings(max_examples=200)
@given(fraction, fraction, fraction, fraction)
def test_estimate_monotonicities_and_bounds(idle, p1, p2, o1):
    lo_p, hi_p = sorted((p1, p2))
    base = estimate_bandwidth(1.0, idle, lo_p, B_NO, o1)
    assert 0.0 <= base <= B_NO
    assert estimate_bandwidth(1.0, idle, hi_p, B_NO, o1) <= base
    assert estimate_bandwidth(0.5, idle, lo_p, B_NO, o1) <= base


def test_backoff_slots_without_retries():
    assert mean_backoff_slots(0.0, DEFAULTS) == (32 - 1) / 2


def test_backoff_overhead_derived_value():
    # 15.5 slots * 50 us over (4 ms + that) = 31/191.
    assert cost_at(0.0).backoff_overhead == pytest.approx(31 / 191, rel=1e-14)


def test_backoff_overhead_monotone():
    assert cost_at(0.4).backoff_overhead > cost_at(0.1).backoff_overhead


def test_backoff_overhead_rejects_certain_collision():
    with pytest.raises(ValueError):
        cost_at(1.0)


def test_backoff_slots_cap_at_cw_max():
    params = DcfParams(cw_min=16, cw_max=32)
    # Stages: 16 then 32; further retries would stay at 32.
    assert mean_backoff_slots(0.0, params) == (16 - 1) / 2
    expected = (16 - 1) / 2 + 0.5 * (32 - 1) / 2
    assert mean_backoff_slots(0.5, params) == pytest.approx(expected, rel=1e-12)


# ----- refresh over hello records -----

def test_refresh_no_neighbors():
    got = refresh_estimates(5.0, 1.0, {}, reference_links({}), B_NO, 3.0)
    assert got == {}


def test_refresh_uses_grid_value_at_grid_distance():
    neighbors = {7: NeighborRecord(40.0, 1.0, 4.9)}
    links = reference_links({7: Position(150.0, 0.0)})
    got = refresh_estimates(5.0, 1.0, neighbors, links, B_NO, 3.0)
    assert got == {7: estimate_bandwidth(1.0, 1.0, 0.2727, B_NO, links(7).backoff_overhead)}


def test_refresh_drops_stale_records():
    neighbors = {
        1: NeighborRecord(40.0, 1.0, 4.5),
        2: NeighborRecord(40.0, 1.0, 1.0),
    }
    positions = {1: Position(100.0, 0.0), 2: Position(120.0, 0.0)}
    got = refresh_estimates(5.0, 1.0, neighbors, reference_links(positions), B_NO, 3.0)
    assert set(got) == {1}


def test_refresh_matches_per_link_recomputation():
    table = reference_table()
    neighbors = {
        1: NeighborRecord(40.0, 0.9, 4.0),
        2: NeighborRecord(30.0, 0.7, 4.5),
        3: NeighborRecord(20.0, 1.0, 5.0),
    }
    positions = {1: Position(110.0, 0.0), 2: Position(0.0, 180.0), 3: Position(160.0, 120.0)}
    got = refresh_estimates(5.0, 0.8, neighbors, reference_links(positions), B_NO, 3.0)
    assert set(got) == {1, 2, 3}
    for peer, rec in neighbors.items():
        pos = positions[peer]
        dist = (pos.x**2 + pos.y**2) ** 0.5
        p_c = lookup_p_c(table, 100.0, dist)
        backoff_s = mean_backoff_slots(p_c, DEFAULTS) * DEFAULTS.virtual_slot
        overhead = backoff_s / (DEFAULTS.payload_duration + backoff_s)
        expected = B_NO * 0.8 * rec.idle_fraction * (1.0 - p_c) * (1.0 - overhead)
        assert got[peer] == pytest.approx(expected, rel=1e-12)
