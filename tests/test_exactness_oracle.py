"""Exactness oracle: the engine must log what a plainer engine logs.

`PlainEngine` undoes the engine's reception blocks: it schedules each
reception as a near-queue entry of its own, with its own sequence number,
so every reception goes through `run`'s full dispatch and the ready queue
never fills.  It overrides only how receptions are queued and calls the
engine for everything else, so no formula has a second copy here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim import simulator
from qgrpsim.config import parse_config
from qgrpsim.metrics import compute_metrics
from qgrpsim.simulator import Engine, format_log


class PlainEngine(Engine):
    """One near-queue entry per reception, with the sequence numbers a block reserves."""

    def _schedule_receptions(self, time, receivers, sender_id, pkt, bits):
        for to_id in receivers:
            self._schedule(time, simulator._ARRIVAL, (to_id,), 0, sender_id, pkt, bits)


@st.composite
def scenarios(draw):
    n = draw(st.integers(5, 30))
    side = draw(st.sampled_from([200.0, 400.0, 600.0]))
    lines = [
        f"[topology]\nn = {n}\nseed = {draw(st.integers(0, 10_000))}\n"
        f"field_width = {side}\nfield_height = {side}\n",
        f"[protocol]\nname = {draw(st.sampled_from(['qgrp', 'aodv']))}\n",
        "[energy]\ninitial_j = 0.05\n",
        f"[retry]\npolicy = {draw(st.sampled_from(['retry', 'reduce']))}\n"
        f"max_retries = {draw(st.integers(0, 3))}\n",
        f"[mac]\nqueue_limit = {draw(st.sampled_from([2, 8, 50]))}\n",
        "[sim]\nduration_s = 8.0\nwarm_up_s = 0.5\nrepetitions = 1\n",
    ]
    for flow_id in range(1, draw(st.integers(1, 3)) + 1):
        rate = draw(st.sampled_from([20_000.0, 100_000.0, 400_000.0]))
        start = draw(st.sampled_from([0.5, 1.0, 1.5]))
        lines.append(f"[flow:{flow_id}]\nrate_bps = {rate}\nstart_s = {start}\n")
    return parse_config("".join(lines))


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_engine_logs_what_the_plain_engine_logs(cfg):
    fast = Engine(cfg).run()
    plain = PlainEngine(cfg).run()
    assert fast.event_log == plain.event_log
    assert format_log(fast.event_log) == format_log(plain.event_log)
    assert compute_metrics(fast.event_log, cfg) == compute_metrics(plain.event_log, cfg)
