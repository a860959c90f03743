import os

import pytest

from qgrpsim.cli import main, run_experiment
from qgrpsim.config import ConfigError, emit_config, parse_config


def test_empty_document_is_all_defaults():
    cfg = parse_config("")
    assert cfg.topology.n == 100
    assert cfg.protocol == "qgrp"
    assert cfg.weights.alpha == 0.7 and cfg.weights.beta == 0.3
    assert cfg.mac.b_no == 2e6
    assert cfg.energy.initial == 40.0
    assert cfg.flows == ()
    assert cfg.dcf.table_densities == (90.0, 100.0, 110.0, 120.0)


def test_alpha_autofills_beta():
    cfg = parse_config("[weights]\nalpha = 0.6\n")
    assert cfg.weights.beta == pytest.approx(0.4)


def test_beta_autofills_alpha():
    cfg = parse_config("[weights]\nbeta = 0.25\n")
    assert cfg.weights.alpha == pytest.approx(0.75)


def test_weight_sum_violation_carries_key_path():
    # The second sum is off by 1e-10: too far for MetricWeights, so still a config error.
    for beta in ("0.5", "0.3000000001"):
        with pytest.raises(ConfigError, match="weights.beta"):
            parse_config(f"[weights]\nalpha = 0.7\nbeta = {beta}\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="topology.bogus"):
        parse_config("[topology]\nbogus = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config("[mystery]\nx = 1\n")


def test_parse_error_reported():
    with pytest.raises(ConfigError, match="parse error"):
        parse_config("topology]\nn = broken\n")


def test_bad_value_carries_key_path():
    with pytest.raises(ConfigError, match="topology.n"):
        parse_config("[topology]\nn = many\n")


def test_validation_examples():
    with pytest.raises(ConfigError, match="topology.n"):
        parse_config("[topology]\nn = 1\n")
    with pytest.raises(ConfigError, match="sim.warm_up_s"):
        parse_config("[sim]\nduration_s = 5.0\nwarm_up_s = 6.0\n")
    with pytest.raises(ConfigError, match="rate_bps"):
        parse_config("[flow:1]\npacket_bits = 100\n")
    with pytest.raises(ConfigError, match="required_bps"):
        parse_config("[flow:1]\nrate_bps = 1000.0\nrequired_bps = 3000000.0\n")
    with pytest.raises(ConfigError, match="retry.policy"):
        parse_config("[retry]\npolicy = panic\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[flow:1]\nrate_bps = 1.0\n[flow:01]\nrate_bps = 2.0\n")


def test_flow_defaults_and_stop_filled_from_duration():
    cfg = parse_config("[sim]\nduration_s = 42.0\n[flow:3]\nrate_bps = 5e5\n")
    (flow,) = cfg.flows
    assert flow.flow_id == 3
    assert flow.packet_bits == 2000
    assert flow.stop == 42.0
    assert flow.required_bandwidth == 5e5
    assert flow.interval == 2000 / 5e5


def test_emit_parse_round_trip():
    cfg = parse_config(
        "[topology]\nn = 55\nseed = 9\n"
        "[protocol]\nname = aodv\n"
        "[weights]\nalpha = 0.65\n"
        "[dcf]\ncw_min = 16\ncw_max = 256\nreduced = false\n"
        "[experiment]\nsizes = 20,30\n"
        "[flow:1]\nrate_bps = 250000.0\nstart_s = 1.5\nsource = 4\n"
        "[flow:2]\nrate_bps = 125000.0\n"
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_default_round_trip():
    cfg = parse_config("")
    assert parse_config(emit_config(cfg)) == cfg


TINY = (
    "[topology]\nn = 12\nseed = 4\nfield_width = 500.0\nfield_height = 500.0\n"
    "[sim]\nduration_s = 3.0\nwarm_up_s = 0.5\nrepetitions = 2\n"
    "[flow:1]\nrate_bps = 100000.0\nstart_s = 0.5\n"
)


def test_run_experiment_outputs(tmp_path):
    cfg = parse_config(TINY)
    out = tmp_path / "exp"
    assert run_experiment(cfg, out) == 0
    runs = (out / "runs.csv").read_text().splitlines()
    assert runs[0].startswith("protocol,n,seed,throughput")
    body = [line.split(",") for line in runs[1:]]
    assert [row[2] for row in body] == ["4", "5", "avg"]
    for name in ("throughput", "pdr", "mean_delay", "mean_residual_energy",
                 "energy_efficiency", "std_energy_deviation"):
        assert (out / f"plot_{name}.csv").exists()
    assert not (out / "failures.txt").exists()


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(TINY)
    run_experiment(cfg, tmp_path / "a", write_logs=True)
    run_experiment(cfg, tmp_path / "b", write_logs=True)
    for name in sorted(os.listdir(tmp_path / "a")):
        pa, pb = tmp_path / "a" / name, tmp_path / "b" / name
        if pa.is_dir():
            for log in sorted(os.listdir(pa)):
                assert (pa / log).read_bytes() == (pb / log).read_bytes()
        else:
            assert pa.read_bytes() == pb.read_bytes()


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = parse_config(TINY)
    run_experiment(cfg, tmp_path / "serial", jobs=1)
    run_experiment(cfg, tmp_path / "par", jobs=2)
    assert (tmp_path / "serial" / "runs.csv").read_bytes() == (
        tmp_path / "par" / "runs.csv"
    ).read_bytes()


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
    assert (out / "runs.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("[weights]\nalpha = 2.0\n")
    assert main(["run", "-c", str(bad), "-o", str(out)]) == 2
    assert main(["run", "-c", str(tmp_path / "missing.cfg"), "-o", str(out)]) == 2


def test_cli_compare_emits_six_plot_files(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(TINY.replace("repetitions = 2", "repetitions = 1"))
    out = tmp_path / "cmp"
    assert main(["compare", "-c", str(cfg_path), "-o", str(out)]) == 0
    plots = [name for name in os.listdir(out) if name.startswith("plot_")]
    assert len(plots) == 6
    header = (out / "plot_throughput.csv").read_text().splitlines()[0]
    assert header == "n,qgrp,qgrp_stderr,aodv,aodv_stderr"


def test_cli_solve_dcf_default_axes(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["solve-dcf", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "density,distance_m,p_c"
    assert len(lines) == 17  # header + 4x4 grid

    single = tmp_path / "one.csv"
    assert main(["solve-dcf", "-o", str(single), "--density-axis", "100",
                 "--distance-axis", "150"]) == 0
    assert len(single.read_text().splitlines()) == 2

    again = tmp_path / "table2.csv"
    assert main(["solve-dcf", "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
