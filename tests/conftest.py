"""Shared fixtures and small oracles for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qgrpsim.config import parse_config
from qgrpsim.dcf import CollisionTable, reference_table, region_counts, solve_fixed_point
from qgrpsim.simulator import window_of

# CI runs the exactness oracle and the exact-radius adjacency property once more under
# this profile: --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=500)


def make_config(extra: str = ""):
    """Parse a config document consisting of defaults plus the given overrides."""
    return parse_config(extra)


def hello_death_config():
    """QGRP in which a receiver dies in the middle of a hello block, and later ones log rows.

    A free amplifier makes a reception cost what a transmission does, so
    receptions drain batteries too.
    """
    return parse_config(
        "[topology]\nn = 8\nseed = 1\nfield_width = 200.0\nfield_height = 200.0\n"
        "[protocol]\nname = qgrp\n"
        "[energy]\ninitial_j = 0.02\ne_amp_j_per_bit_m2 = 0.0\n"
        "[sim]\nduration_s = 8.0\nwarm_up_s = 0.5\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n")


def flood_death_config():
    """AODV in which a receiver dies in the middle of an RREQ flood block, and later ones
    log rows.

    As in hello_death_config, a free amplifier lets receptions drain batteries.
    """
    return parse_config(
        "[topology]\nn = 30\nseed = 8\nfield_width = 400.0\nfield_height = 400.0\n"
        "[protocol]\nname = aodv\n"
        "[energy]\ninitial_j = 0.01\ne_amp_j_per_bit_m2 = 0.0\n"
        "[sim]\nduration_s = 8.0\nwarm_up_s = 0.5\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 100000.0\nstart_s = 1.5\n")


@st.composite
def scenarios(draw):
    """A small seeded scenario and the collision table to run it on (None: the solved one).

    The exactness oracle runs each draw on both engines; the loop-freedom test
    runs it as QGRP.
    """
    n = draw(st.integers(5, 30))
    side = draw(st.sampled_from([200.0, 400.0, 600.0]))
    lines = [
        f"[topology]\nn = {n}\nseed = {draw(st.integers(0, 10_000))}\n"
        f"field_width = {side}\nfield_height = {side}\n",
        f"[protocol]\nname = {draw(st.sampled_from(['qgrp', 'aodv']))}\n",
        # A free amplifier drains batteries through receptions too, so receivers die on a
        # broadcast's later receptions and their rows consume what was left.
        draw(st.sampled_from(["[energy]\ninitial_j = 0.05\n",
                              "[energy]\ninitial_j = 0.02\ne_amp_j_per_bit_m2 = 0.0\n"])),
        f"[retry]\npolicy = {draw(st.sampled_from(['retry', 'reduce']))}\n"
        f"max_retries = {draw(st.integers(0, 3))}\n",
        f"[mac]\nqueue_limit = {draw(st.sampled_from([2, 8, 50]))}\n",
        # At 0.7 some edges k * window divide back to just below k; at 0.25 many more
        # transmissions straddle an edge.
        f"[hello]\nidle_window_s = {draw(st.sampled_from([1.0, 0.7, 0.25]))}\n",
        "[sim]\nduration_s = 8.0\nwarm_up_s = 0.5\nrepetitions = 1\n",
    ]
    for flow_id in range(1, draw(st.integers(1, 3)) + 1):
        rate = draw(st.sampled_from([20_000.0, 100_000.0, 400_000.0]))
        start = draw(st.sampled_from([0.5, 1.0, 1.5]))
        lines.append(f"[flow:{flow_id}]\nrate_bps = {rate}\nstart_s = {start}\n")
    # The reference grid's p_c rises with distance, so a link's p_c depends on which link.
    table = draw(st.sampled_from([None, reference_table()]))
    return parse_config("".join(lines)), table


def reference_format_log(event_log) -> str:
    """What format_log must render: each row's reprs joined by commas, one row a line."""
    return "".join(",".join(map(repr, row)) + "\n" for row in event_log) or "\n"


def eager_charge(busy, nodes, window, sender, start, duration):
    """Reference: add airtime to every carrier-sense node's buckets at transmission time.

    busy[i] is node i's bucket -> airtime dict; a node is charged when its
    cs_mask holds the sender.  The window a time falls in is the engine's own
    `window_of`.
    """
    segments = []
    t = start
    remaining = duration
    while remaining > 0.0:
        bucket = window_of(t, window)
        seg = min(remaining, (bucket + 1) * window - t)
        segments.append((bucket, seg))
        t += seg
        remaining -= seg
    for node in nodes:
        if not node.cs_mask[sender.id]:
            continue
        other = busy[node.id]
        for bucket, seg in segments:
            other[bucket] = other.get(bucket, 0.0) + seg


def solve_each_cell(densities, distances, params) -> CollisionTable:
    """Reference for build_table: one fixed-point solve per cell, nothing shared."""
    grid = tuple(tuple(solve_fixed_point(region_counts(density / 1e6, dist, params), params).p_c
                       for dist in distances)
                 for density in densities)
    return CollisionTable(tuple(map(float, densities)), tuple(map(float, distances)), grid)


def constant_table(p_c: float) -> CollisionTable:
    """A one-cell collision table pinning every lookup to p_c."""
    return CollisionTable((1.0,), (1.0,), ((p_c,),))


@pytest.fixture
def zero_table() -> CollisionTable:
    return constant_table(0.0)
