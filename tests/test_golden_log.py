"""Pinned event logs of eight small runs.

Any change to the simulated behaviour, or to the float arithmetic behind
it, changes these digests.  A change that means to alter the logs
re-records them and says why; a refactor must leave them as they are.
"""

import hashlib

import pytest

from qgrpsim.config import parse_config
from qgrpsim.dcf import reference_table
from qgrpsim.simulator import Engine, format_log
from conftest import reference_format_log


def small_cfg(protocol, extra=""):
    # Small batteries, so that nodes die mid-run and the death paths are pinned too.
    return parse_config(
        "[topology]\nn = 40\nseed = 7\n"
        f"[protocol]\nname = {protocol}\n"
        "[energy]\ninitial_j = 0.3\n"
        f"{extra}"
        "[sim]\nduration_s = 8.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 80000.0\nstart_s = 1.5\n"
    )


@pytest.mark.parametrize("protocol, table, digest", [
    # The reference grid's p_c rises with distance, so link costs differ per link.
    ("qgrp", reference_table(),
     "851e7b0dafb84bd8a68309b82a6dc02fa6da130bd393804bd337f1d71e68717b"),
    ("aodv", None, "26a368296d9af0227f32a308689ad738b6b04dac0231f15b89469ada24fa762e"),
])
def test_event_log_digest_is_pinned(protocol, table, digest):
    assert log_digest(small_cfg(protocol), table) == digest


def test_short_idle_window_digest_is_pinned():
    # Quarter-second idle windows: many more transmissions straddle a bucket edge.
    cfg = small_cfg("qgrp", "[hello]\nidle_window_s = 0.25\n")
    assert log_digest(cfg, reference_table()) == (
        "576f592798c33d44d80ac298b27e84673a981b1385321c1349fce4862aec8c53")


def data_plane_cfg(protocol):
    # Tight batteries, buffers and queues under the reduce policy with one retry.  Seed 2
    # drops data for buffer_overflow, flow_failed, queue_full and dead_receiver on both
    # protocols, and QGRP fails a flow on an admission rejection.
    return parse_config(
        "[topology]\nn = 30\nseed = 2\n"
        f"[protocol]\nname = {protocol}\n"
        "[energy]\ninitial_j = 0.05\n"
        "[retry]\npolicy = reduce\nmax_retries = 1\nbuffer_capacity = 3\n"
        "[mac]\nqueue_limit = 2\n"
        "[sim]\nduration_s = 8.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 600000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 900000.0\nstart_s = 1.5\n"
        "[flow:3]\nrate_bps = 400000.0\nstart_s = 2.0\n"
    )


@pytest.mark.parametrize("protocol, digest", [
    ("qgrp", "a14f01f060c333b21fcece0fee53c419a36dcc6321a51577e3d67cc749a74629"),
    ("aodv", "40d6da209ec7208e6e81697f81ec3f26f61b292bb71e40407e1d0a523c210fc6"),
])
def test_data_plane_digest_is_pinned(protocol, digest):
    log = Engine(data_plane_cfg(protocol)).run().event_log
    drops = {row[5] for row in log if row[2] == "drop"}
    assert {"buffer_overflow", "flow_failed", "queue_full", "dead_receiver"} <= drops
    assert any(row[2] == "flow_failed" for row in log)
    if protocol == "qgrp":
        assert any(row[2] == "admission_reject" for row in log)
    assert digest_of(log) == digest


def log_digest(cfg, table):
    return digest_of(Engine(cfg, table=table).run().event_log)


def digest_of(log):
    text = format_log(log)
    # A digest pins the renderer too: one that breaks the repr contract must fail
    # here rather than be re-recorded.
    assert text == reference_format_log(log)
    return hashlib.sha256(text.encode()).hexdigest()


def control_plane_cfg(seed):
    # Flows too heavy for many links, under the retry policy with one retry.  Seed 2
    # answers an RREQ from a cached route; seed 6 rejects an RREQ, releases reservations
    # as rejected and failed, re-requests with a positive retry index and fails flows.
    return parse_config(
        f"[topology]\nn = 30\nseed = {seed}\n"
        "[protocol]\nname = qgrp\n"
        "[retry]\npolicy = retry\nmax_retries = 1\n"
        "[sim]\nduration_s = 12.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 600000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 900000.0\nstart_s = 1.5\n"
        "[flow:3]\nrate_bps = 400000.0\nstart_s = 2.0\n"
    )


@pytest.mark.parametrize("seed, digest", [
    (2, "1e634fda0cbdb2bd90f65e3a577f80e77a8923f8366e5fdb2dc4d13a636f9c8c"),
    (6, "14f2937d2d01fb1cc63c8cf37e99fc86934a8cec6d67be8d9c97459278560569"),
])
def test_control_plane_digest_is_pinned(seed, digest):
    log = Engine(control_plane_cfg(seed)).run().event_log
    kinds = {row[2] for row in log}
    if seed == 2:
        assert "cache_reply" in kinds
    else:
        assert {"admission_reject", "flow_failed"} <= kinds
        releases = {row[6] for row in log if row[2] == "release"}
        assert {"rejected", "failed"} <= releases
        assert any(row[2] == "rreq_link" and row[4] > 0 for row in log)
    assert digest_of(log) == digest


def test_aodv_discovery_digest_is_pinned():
    # Heavy flows and two discovery retries.  Relays invalidate routes through dead nodes,
    # two sources rediscover when their next hop dies, and both flows fail once every
    # retry has timed out.
    cfg = parse_config(
        "[topology]\nn = 30\nseed = 9\n"
        "[protocol]\nname = aodv\n"
        "[retry]\nmax_retries = 2\n"
        "[sim]\nduration_s = 12.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 600000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 900000.0\nstart_s = 1.5\n"
        "[flow:3]\nrate_bps = 400000.0\nstart_s = 2.0\n"
    )
    log = Engine(cfg).run().event_log
    kinds = [row[2] for row in log]
    assert (kinds.count("flow_failed"), kinds.count("route_invalidate"), kinds.count("death")) \
        == (2, 2, 4)
    assert digest_of(log) == "09934d18e519f8751742510e9f90658489f5d2b82d7819212e879bcfbd0a00d9"
