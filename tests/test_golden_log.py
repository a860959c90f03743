"""Pinned event logs of two small runs.

Any change to the simulated behaviour, or to the float arithmetic behind
it, changes these digests.  A change that means to alter the logs
re-records them and says why; a refactor must leave them as they are.
"""

import hashlib

import pytest

from qgrpsim.config import parse_config
from qgrpsim.dcf import reference_table
from qgrpsim.simulator import Engine, format_log


def small_cfg(protocol):
    # Small batteries, so that nodes die mid-run and the death paths are pinned too.
    return parse_config(
        "[topology]\nn = 40\nseed = 7\n"
        f"[protocol]\nname = {protocol}\n"
        "[energy]\ninitial_j = 0.3\n"
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
    engine = Engine(small_cfg(protocol), table=table).run()
    text = format_log(engine.event_log)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
