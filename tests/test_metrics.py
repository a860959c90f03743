import pytest

from qgrpsim.config import parse_config
from qgrpsim.metrics import RunMetrics, aggregate, compute_metrics, left_sum
from qgrpsim.simulator import format_log, parse_log, read_rows, run_scenario


def cfg_for(duration=10.0, warm_up=2.0):
    return parse_config(
        f"[sim]\nduration_s = {duration}\nwarm_up_s = {warm_up}\nrepetitions = 1\n"
    )


def node_row(node_id, initial=40.0, role="sensor"):
    return (0.0, node_id, "node", 0.0, float(node_id), initial, role)


def test_no_data_originated_markers():
    log = [node_row(0), node_row(1, role="sink")]
    m = compute_metrics(log, cfg_for())
    assert m.throughput == 0.0
    assert m.pdr is None
    assert m.mean_delay is None
    assert m.energy_efficiency is None


def test_pdr_is_an_integer_ratio_and_duplicates_ignored():
    log = [node_row(0), node_row(1, role="sink"), (0.0, 0, "flow", 7, 1e5, 2000, 1.0, 9.0, 1e5)]
    for seq in range(4):
        log.append((3.0 + seq, 0, "origin", 7, seq))
    log.append((3.5, 1, "deliver", 7, 0, 3.0, 2000))
    log.append((4.5, 1, "deliver", 7, 1, 4.0, 2000))
    log.append((4.6, 1, "deliver", 7, 1, 4.0, 2000))  # duplicate, must not count
    m = compute_metrics(log, cfg_for())
    assert m.pdr == 2 / 4
    assert round(m.pdr * 4) == 2


def test_throughput_counts_unique_window_bits_only():
    log = [node_row(0), node_row(1, role="sink")]
    log.append((1.0, 1, "deliver", 7, 0, 0.5, 2000))   # before warm-up, excluded
    log.append((5.0, 1, "deliver", 7, 1, 4.5, 2000))
    log.append((6.0, 1, "deliver", 7, 2, 5.5, 3000))
    m = compute_metrics(log, cfg_for(duration=10.0, warm_up=2.0))
    assert m.throughput == (2000 + 3000) / 8.0


def test_mean_delay_adds_left_to_right():
    # Ten delays of 0.1 fold to 0.9999999999999999 on every Python; from 3.12 on, the
    # builtin sum() compensates and gives 1.0, so the mean would read 0.1.
    log = [node_row(0), node_row(1, role="sink")]
    log += [(0.1, 1, "deliver", 7, seq, 0.0, 2000) for seq in range(10)]
    assert compute_metrics(log, cfg_for()).mean_delay == 0.9999999999999999 / 10
    assert 0.9999999999999999 / 10 != 0.1


def test_left_sum_of_nothing_is_int_zero():
    assert left_sum([]) == 0 and type(left_sum([])) is int


def test_aggregate_single_run_is_identity():
    run = RunMetrics(1000.0, 0.5, 0.1, 30.0, 0.01, 2.0)
    agg = aggregate([run])
    assert agg.mean["throughput"] == 1000.0
    assert agg.stderr["throughput"] == 0.0


def test_aggregate_two_runs_mean():
    runs = [
        RunMetrics(400e3, 0.5, 0.1, 30.0, 0.01, 2.0),
        RunMetrics(600e3, 0.7, 0.3, 34.0, 0.03, 4.0),
    ]
    agg = aggregate(runs)
    assert agg.mean["throughput"] == 500e3
    assert agg.mean["pdr"] == pytest.approx(0.6)
    assert agg.stderr["throughput"] == pytest.approx(100e3)


def test_aggregate_excludes_undefined_with_count():
    runs = [
        RunMetrics(0.0, None, None, 40.0, None, 0.0),
        RunMetrics(100.0, 1.0, 0.2, 39.0, 0.5, 1.0),
    ]
    agg = aggregate(runs)
    assert agg.mean["pdr"] == 1.0
    assert agg.stderr["pdr"] == 0.0  # over the one defined value
    assert agg.mean["energy_efficiency"] == 0.5


def test_aggregate_all_undefined_is_none():
    runs = [RunMetrics(0.0, None, None, 40.0, None, 0.0)] * 2
    agg = aggregate(runs)
    assert agg.mean["pdr"] is None
    assert agg.stderr["pdr"] is None


def test_aggregate_requires_runs():
    with pytest.raises(ValueError):
        aggregate([])


def test_metrics_pure_function_of_log():
    cfg = parse_config(
        "[topology]\nn = 12\nseed = 2\n"
        "[sim]\nduration_s = 5.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"
    )
    result = run_scenario(cfg)
    assert compute_metrics(result.event_log, cfg) == result.metrics
    # The integer identity between PDR and the raw counts holds on the log.
    originated = sum(1 for r in result.event_log if r[2] == "origin")
    delivered = len({(r[3], r[4]) for r in result.event_log if r[2] == "deliver"})
    if originated:
        assert result.metrics.pdr == delivered / originated
    assert result.metrics.throughput <= cfg.mac.b_no


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_metrics_fold_rows_read_once(protocol):
    # verify folds each log as it reads it, so one pass over the rows must give the figures
    # the list gives.
    cfg = parse_config(
        "[topology]\nn = 12\nseed = 2\nfield_width = 300.0\nfield_height = 300.0\n"
        f"[protocol]\nname = {protocol}\n"
        "[sim]\nduration_s = 5.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 100000.0\nstart_s = 1.0\n"
    )
    result = run_scenario(cfg)
    rows = list(result.event_log)
    assert result.metrics.pdr
    assert compute_metrics(iter(rows), cfg) == compute_metrics(rows, cfg) == result.metrics
    text = format_log(result.event_log)
    lines = iter(text.splitlines(keepends=True))
    assert compute_metrics(read_rows(lines), cfg) == compute_metrics(parse_log(text), cfg)
