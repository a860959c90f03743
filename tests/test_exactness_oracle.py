"""Exactness oracle: the engine must log what a plainer engine logs.

`PlainEngine` undoes seven of the engine's optimisations, through six
members (`_receive_hellos` undoes two):
- its default collision table solves the fixed point for every cell on
  its own, where `build_table` solves each distinct contender count once;
- its `event_log` is a plain list, so every row is logged as a tuple and
  no reception extends an rx run;
- `_schedule_receptions` schedules each reception as a heap entry of its
  own, with its own sequence number, so every block has one reception,
  and every reception goes through `run`'s full dispatch;
- `_receive_hellos` debits and logs each hello reception on its own,
  through `_debit` and `log_row`, where the engine debits survivors
  inline and stores a block's surviving receivers as one run;
- `_receive_hellos` also stores a fresh `NeighborRecord` through
  `on_hello` at every reception that survives its debit, since its
  blocks hold one receiver, where the engine's block survivors share
  one record;
- `_neighbor_p_c` looks up every link's p_c through `lookup_p_c`, where
  the engine snaps the density row once and reuses the reverse
  direction's;
- `_charge_busy` adds airtime to every sensing node's `node.busy` at
  transmission time, so `idle_fraction` reads the eager totals, and
  `_settle_busy` is reached only for a window that had no airtime.
Its log renders through the one-join reference.  It overrides only order,
caching, sharing, laziness and rendering, and calls the engine for
everything else, so no formula has a second copy here.
"""

from hypothesis import example, given, settings

from qgrpsim import simulator
from qgrpsim.config import parse_config
from qgrpsim.dcf import REFERENCE_DENSITIES, REFERENCE_DISTANCES, lookup_p_c
from qgrpsim.geometry import distance
from qgrpsim.link_estimation import NeighborRecord
from qgrpsim.metrics import compute_metrics
from qgrpsim.simulator import Engine, format_log
from conftest import (eager_charge, flood_death_config, hello_death_config, reference_format_log,
                      scenarios, solve_each_cell)


class PlainEngine(Engine):
    """The engine without a shared table solve, a compact log, reception blocks, hello
    blocks settled at once, shared neighbour records, p_c reuse or lazy busy time."""

    def __init__(self, cfg, seed=None, table=None):
        if table is None:
            table = solve_each_cell(REFERENCE_DENSITIES, REFERENCE_DISTANCES, cfg.dcf)
        super().__init__(cfg, seed, table)
        self.event_log = []

    def _schedule_receptions(self, time, receivers, sender_id, pkt, bits):
        for to_id in receivers:
            self._schedule(time, simulator._ARRIVAL, (to_id,), sender_id, pkt, bits)

    def _receive_hellos(self, receivers, sender_id, pkt, bits, now):
        amount = simulator.radio_rx_energy(bits, self.cfg.energy.e_elec)
        kind = simulator._PKT_KINDS[type(pkt)]
        for to_id in receivers:
            node = self.nodes[to_id]
            if node.alive:
                self.log_row(now, to_id, "rx", kind, bits, sender_id, self._debit(node, amount))
                if node.alive:
                    node.protocol.on_hello(
                        sender_id, NeighborRecord(pkt.residual_energy, pkt.sent_at, now))
                else:
                    self.log_row(now, to_id, "death")

    def _neighbor_p_c(self, sender):
        nodes = self.nodes
        return tuple(lookup_p_c(self.table, self.density,
                                distance(sender.position, nodes[nb_id].position))
                     for nb_id in sender.neighbor_ids)

    def _charge_busy(self, sender, start, duration):
        eager_charge([node.busy for node in self.nodes], self.nodes, self.cfg.hello.idle_window,
                     sender, start, duration)

    def _settle_busy(self, node_id, bucket):
        """A window missing from an eager node.busy had no airtime."""
        return 0.0


# Pinned so that every run compares a block's run split at a death: a hello block's, and
# an AODV RREQ flood's, whose later receptions extend the run in `_on_arrival`.
MID_BLOCK_DEATH = hello_death_config()
MID_FLOOD_DEATH = flood_death_config()


def has_death_inside_a_block(cfg, pkt_kind):
    """Whether a receiver dies on a block of pkt_kind, and a later reception logs a row."""
    rows = list(Engine(cfg).run().event_log)
    return any(
        a[2:4] == ("rx", pkt_kind) and b == (a[0], a[1], "death")
        and c[2:4] == ("rx", pkt_kind) and (c[0], c[5]) == (a[0], a[5])
        for a, b, c in zip(rows, rows[1:], rows[2:]))


def test_the_pinned_example_has_a_death_inside_a_hello_block():
    assert has_death_inside_a_block(MID_BLOCK_DEATH, "hello")


def test_the_pinned_flood_example_has_a_death_inside_an_rreq_block():
    assert has_death_inside_a_block(MID_FLOOD_DEATH, "aodvrreq")


@settings(deadline=None)
@given(scenarios())
@example((MID_BLOCK_DEATH, None))
@example((MID_FLOOD_DEATH, None))
def test_engine_logs_what_the_plain_engine_logs(scenario):
    cfg, table = scenario
    fast = Engine(cfg, table=table).run()
    plain = PlainEngine(cfg, table=table).run()
    assert type(plain.event_log) is list
    assert fast.table == plain.table
    assert fast.event_log == plain.event_log
    assert format_log(fast.event_log) == reference_format_log(plain.event_log)
    assert compute_metrics(fast.event_log, cfg) == compute_metrics(plain.event_log, cfg)
