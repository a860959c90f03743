import statistics

import pytest

from qgrpsim import simulator
from qgrpsim.config import parse_config
from qgrpsim.dcf import DcfParams
from qgrpsim.geometry import distance
from qgrpsim.metrics import compute_metrics
from qgrpsim.qgrp import Data
from qgrpsim.simulator import (
    Engine,
    build_link_cost,
    format_log,
    generate_topology,
    parse_log,
    radio_rx_energy,
    run_scenario,
)
from conftest import constant_table


# ----- topology -----

def test_topology_minimal():
    topo = generate_topology(2, seed=5)
    assert len(topo.nodes) == 2
    assert topo.sink_id in (0, 1)


def test_topology_rejects_tiny():
    with pytest.raises(ValueError):
        generate_topology(1)


def test_topology_deterministic():
    a = generate_topology(50, seed=123)
    b = generate_topology(50, seed=123)
    assert a.sink_id == b.sink_id
    assert [(n.position.x, n.position.y) for n in a.nodes] == [
        (n.position.x, n.position.y) for n in b.nodes
    ]


def test_adjacency_matches_per_node_scan():
    cfg = parse_config("[topology]\nn = 60\nseed = 4\n")
    engine = Engine(cfg, table=constant_table(0.0))
    nodes = engine.topology.nodes
    cs = cfg.dcf.params.carrier_sense_radius
    for node in nodes:
        dist = {o.id: distance(node.position, o.position) for o in nodes}
        assert node.neighbor_ids == tuple(
            i for i in sorted(dist) if i != node.id and dist[i] <= cfg.topology.tx_range
        )
        assert [o.id for o in node.cs_nodes] == [i for i in sorted(dist) if dist[i] <= cs]


def test_topology_positions_inside_field():
    topo = generate_topology(200, field_size=(800.0, 600.0), seed=9)
    assert all(0 <= n.position.x <= 800 and 0 <= n.position.y <= 600 for n in topo.nodes)


def test_mean_neighbor_degree_over_seeds():
    degrees = []
    for seed in range(50):
        topo = generate_topology(100, (1000.0, 1000.0), 250.0, seed)
        nodes = topo.nodes
        count = 0
        for a in nodes:
            for b in nodes:
                if a.id < b.id:
                    dx = a.position.x - b.position.x
                    dy = a.position.y - b.position.y
                    if dx * dx + dy * dy <= 250.0**2:
                        count += 2
        degrees.append(count / len(nodes))
    mean_degree = statistics.mean(degrees)
    assert 15.0 <= mean_degree <= 20.0


# ----- channel arithmetic -----

def test_airtime_at_zero_collision():
    # 2000 bits at 2 Mbit/s plus 15.5 slots of 50 us.
    cost = build_link_cost(0.0, 100.0, DcfParams(), 50e-9, 100e-12)
    assert 2000 / 2e6 + cost.contention_s == pytest.approx(1.775e-3, rel=1e-12)


def test_radio_energy_examples():
    assert radio_rx_energy(2000, 50e-9) == pytest.approx(100e-6, rel=1e-12)
    cost = build_link_cost(0.0, 250.0, DcfParams(), 50e-9, 100e-12)
    assert cost.tx_j_per_bit * 2000 == pytest.approx(12.6e-3, rel=1e-12)


def test_collision_certain_table_is_rejected():
    with pytest.raises(ValueError, match="density 1.0, distance 1.0"):
        Engine(parse_config("[topology]\nn = 2\n"), table=constant_table(1.0))


def test_event_before_its_cause_raises():
    engine = Engine(run_cfg())
    engine._schedule(-1.0, simulator._TX_DONE, 0)
    with pytest.raises(RuntimeError, match="before its cause"):
        engine.run()


def test_unicast_loss_rate_matches_configured_p_c():
    cfg = parse_config(
        "[topology]\nn = 2\nseed = 1\n"
        "[mac]\nretries = 0\nqueue_limit = 1000000\n"
        "[sim]\nduration_s = 1.0\nwarm_up_s = 0.0\nrepetitions = 1\n"
    )
    engine = Engine(cfg, table=constant_table(0.25))
    sender = engine.topology.nodes[0]
    receiver_id = engine.topology.nodes[1].id
    sender.energy.residual = sender.energy.initial = 1e9  # keep it alive throughout
    attempts = 100_000
    for i in range(attempts):
        engine._transmit_unicast(sender, receiver_id, Data(1, 2000, 0.0, i), 2160, 0.0)
    losses = sum(1 for row in engine.event_log if row[2] == "drop" and row[5] == "mac_loss")
    assert abs(losses / attempts - 0.25) <= 0.01


# ----- runs -----

def run_cfg(extra=""):
    return parse_config(
        "[topology]\nn = 15\nseed = 3\n"
        "[sim]\nduration_s = 5.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        + extra
    )


def test_zero_flows_spends_energy_on_hellos_only():
    cfg = run_cfg()
    result = run_scenario(cfg)
    assert result.metrics.throughput == 0.0
    assert result.metrics.pdr is None
    tx_kinds = {row[3] for row in result.event_log if row[2] == "tx"}
    assert tx_kinds <= {"hello"}
    assert any(row[2] == "tx" for row in result.event_log)


def test_single_short_flow_delivers_almost_everything():
    cfg = run_cfg("[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n")
    result = run_scenario(cfg)
    assert result.metrics.pdr >= 0.99


def test_one_hop_flow_pdr_bound():
    # Two nodes 150 m apart; residual loss after 4 retransmissions is p_c^5.
    cfg = parse_config(
        "[topology]\nn = 2\nseed = 8\nfield_width = 160.0\nfield_height = 10.0\n"
        "[sim]\nduration_s = 10.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n"
    )
    result = run_scenario(cfg)
    assert result.metrics.pdr >= 0.99


def test_identical_runs_are_bit_identical():
    cfg = run_cfg("[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert format_log(a.event_log) == format_log(b.event_log)
    assert a.metrics == b.metrics


def test_event_times_never_regress():
    cfg = run_cfg("[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n")
    log = run_scenario(cfg).event_log
    times = [row[0] for row in log]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_log_round_trip_preserves_metrics():
    cfg = run_cfg("[flow:1]\nrate_bps = 150000.0\nstart_s = 1.0\n")
    result = run_scenario(cfg)
    back = parse_log(format_log(result.event_log))
    assert back == result.event_log
    assert compute_metrics(back, cfg) == result.metrics


def heavy_depletion_cfg(protocol="qgrp"):
    # Dense little field and tiny batteries so several nodes die mid-run.
    return parse_config(
        "[topology]\nn = 20\nseed = 11\nfield_width = 400.0\nfield_height = 400.0\n"
        f"[protocol]\nname = {protocol}\n"
        "[energy]\ninitial_j = 0.05\n"
        "[sim]\nduration_s = 8.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 400000.0\nstart_s = 1.0\n"
        "[flow:2]\nrate_bps = 300000.0\nstart_s = 1.5\n"
    )


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_energy_conservation_and_dead_node_silence(protocol):
    cfg = heavy_depletion_cfg(protocol)
    result = run_scenario(cfg)
    log = result.event_log
    spent = {}
    death_index = {}
    for i, row in enumerate(log):
        if row[2] == "tx":
            spent[row[1]] = spent.get(row[1], 0.0) + row[7]
        elif row[2] == "rx":
            spent[row[1]] = spent.get(row[1], 0.0) + row[6]
        elif row[2] == "death":
            death_index[row[1]] = i
    assert death_index, "expected at least one depleted node in this scenario"
    for node in result.engine.topology.nodes:
        total = spent.get(node.id, 0.0)
        assert abs((node.energy.initial - node.energy.residual) - total) <= 1e-9
        if node.id in death_index:
            assert node.energy.residual == 0.0
    for node_id, idx in death_index.items():
        after = [r for r in log[idx + 1:] if r[1] == node_id and r[2] in ("tx", "rx")]
        assert after == []


def test_queue_limit_drops_excess_data():
    cfg = parse_config(
        "[topology]\nn = 2\nseed = 8\nfield_width = 160.0\nfield_height = 10.0\n"
        "[mac]\nqueue_limit = 5\n"
        "[sim]\nduration_s = 3.0\nwarm_up_s = 0.5\nrepetitions = 1\n"
        # Admittable requirement, but beyond the per-hop service rate once
        # contention delay is added to serialization.
        "[flow:1]\nrate_bps = 1200000.0\nstart_s = 0.5\n"
    )
    result = run_scenario(cfg)
    reasons = {row[5] for row in result.event_log if row[2] == "drop"}
    assert "queue_full" in reasons
    assert result.metrics.pdr < 1.0
