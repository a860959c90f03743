"""Exactness oracle: the engine must log what a plainer engine logs.

`PlainEngine` undoes four of the engine's optimisations, one member each:
- its `event_log` is a plain list, so every row is logged as a tuple and
  no reception extends an rx run;
- `_schedule_receptions` schedules each reception as a heap entry of its
  own, with its own sequence number, so every reception goes through
  `run`'s full dispatch and the ready queue never fills;
- `_neighbor_p_c` looks up every link's p_c through `lookup_p_c`, where
  the engine snaps the density row once and reuses the reverse
  direction's;
- `_charge_busy` adds airtime to `node.busy` at transmission time, and
  `_settle_busy` has nothing left to do, so `idle_fraction` reads the
  eager totals.
Its log renders through the one-join reference.  It overrides only order,
caching, laziness and rendering, and calls the engine for everything else,
so no formula has a second copy here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qgrpsim import simulator
from qgrpsim.config import parse_config
from qgrpsim.dcf import lookup_p_c, reference_table
from qgrpsim.geometry import distance
from qgrpsim.metrics import compute_metrics
from qgrpsim.simulator import Engine, format_log
from conftest import eager_charge, reference_format_log


class PlainEngine(Engine):
    """The engine without a compact log, reception blocks, p_c reuse or lazy busy time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.event_log = []

    def _schedule_receptions(self, time, receivers, sender_id, pkt, bits):
        for to_id in receivers:
            self._schedule(time, simulator._ARRIVAL, (to_id,), sender_id, pkt, bits)

    def _neighbor_p_c(self, sender):
        nodes = self.nodes
        return tuple(lookup_p_c(self.table, self.density,
                                distance(sender.position, nodes[nb_id].position))
                     for nb_id in sender.neighbor_ids)

    def _charge_busy(self, sender, start, duration):
        eager_charge([node.busy for node in self.nodes], self.cfg.hello.idle_window, sender,
                     start, duration)

    def _settle_busy(self, last):
        """Nothing to settle: `_charge_busy` has added every charge to node.busy."""


@st.composite
def scenarios(draw):
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
        "[sim]\nduration_s = 8.0\nwarm_up_s = 0.5\nrepetitions = 1\n",
    ]
    for flow_id in range(1, draw(st.integers(1, 3)) + 1):
        rate = draw(st.sampled_from([20_000.0, 100_000.0, 400_000.0]))
        start = draw(st.sampled_from([0.5, 1.0, 1.5]))
        lines.append(f"[flow:{flow_id}]\nrate_bps = {rate}\nstart_s = {start}\n")
    # The reference grid's p_c rises with distance, so a link's p_c depends on which link.
    table = draw(st.sampled_from([None, reference_table()]))
    return parse_config("".join(lines)), table


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_engine_logs_what_the_plain_engine_logs(scenario):
    cfg, table = scenario
    fast = Engine(cfg, table=table).run()
    plain = PlainEngine(cfg, table=table).run()
    assert type(plain.event_log) is list
    assert fast.event_log == plain.event_log
    assert format_log(fast.event_log) == reference_format_log(plain.event_log)
    assert compute_metrics(fast.event_log, cfg) == compute_metrics(plain.event_log, cfg)
