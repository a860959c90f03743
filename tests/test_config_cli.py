import hashlib
import os
import re
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgrpsim import simulator
from qgrpsim.cli import main, run_experiment
from qgrpsim.config import FLOW_KEYS, KEYS, ConfigError, emit_config, parse_config

# Every declared key but the flow keys, by "section.key".
DECLARED = {f"{key.section}.{key.name}": key for keys in KEYS.values() for key in keys.values()}


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
    # [dcf] has no switch between collision forms: the model has one.
    with pytest.raises(ConfigError, match=r"^dcf\.reduced: unknown key"):
        parse_config("[dcf]\nreduced = false\n")


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


# One document per key that has a check, plus the cross-key rules: each error
# must name the key that holds the bad value.
BAD_VALUES = [
    ("topology.n", "[topology]\nn = 1\n"),
    ("topology.field_width", "[topology]\nfield_width = 0\n"),
    ("topology.field_height", "[topology]\nfield_height = -1\n"),
    ("topology.tx_range", "[topology]\ntx_range = 0\n"),
    ("protocol.name", "[protocol]\nname = olsr\n"),
    ("weights.alpha", "[weights]\nalpha = 2.0\n"),
    ("weights.beta", "[weights]\nbeta = -1.0\n"),
    ("weights.beta", "[weights]\nalpha = 0.5\nbeta = 0.2\n"),
    ("dcf.cw_min", "[dcf]\ncw_min = 0\n"),
    ("dcf.cw_max", "[dcf]\ncw_max = 100\n"),
    ("dcf.cw_max", "[dcf]\ncw_max = 16\n"),
    ("dcf.payload_duration_s", "[dcf]\npayload_duration_s = 0\n"),
    ("dcf.virtual_slot_s", "[dcf]\nvirtual_slot_s = 0\n"),
    ("dcf.carrier_sense_radius_m", "[dcf]\ncarrier_sense_radius_m = 0\n"),
    ("dcf.interference_radius_m", "[dcf]\ninterference_radius_m = -1\n"),
    ("dcf.table_densities", "[dcf]\ntable_densities = -5\n"),
    ("dcf.table_densities", "[dcf]\ntable_densities = 120,90\n"),
    ("dcf.table_distances", "[dcf]\ntable_distances = 100,100\n"),
    ("dcf.table_distances", "[dcf]\ntable_distances = ,\n"),
    ("mac.b_no_bps", "[mac]\nb_no_bps = 0\n"),
    ("mac.retries", "[mac]\nretries = -1\n"),
    ("mac.queue_limit", "[mac]\nqueue_limit = 0\n"),
    ("energy.initial_j", "[energy]\ninitial_j = 0\n"),
    ("energy.e_elec_j_per_bit", "[energy]\ne_elec_j_per_bit = -1\n"),
    ("energy.e_amp_j_per_bit_m2", "[energy]\ne_amp_j_per_bit_m2 = -1\n"),
    ("hello.interval_s", "[hello]\ninterval_s = 0\n"),
    ("hello.jitter", "[hello]\njitter = 1.0\n"),
    ("hello.expiry_intervals", "[hello]\nexpiry_intervals = 0\n"),
    ("hello.idle_window_s", "[hello]\nidle_window_s = 0\n"),
    ("retry.rrep_wait_s", "[retry]\nrrep_wait_s = 0\n"),
    ("retry.max_retries", "[retry]\nmax_retries = -1\n"),
    ("retry.backoff_s", "[retry]\nbackoff_s = 0\n"),
    ("retry.buffer_capacity", "[retry]\nbuffer_capacity = 0\n"),
    ("retry.policy", "[retry]\npolicy = panic\n"),
    ("retry.reservation_ttl_s", "[retry]\nreservation_ttl_s = 0\n"),
    ("pkt.hello_bits", "[pkt]\nhello_bits = 0\n"),
    ("pkt.rreq_bits", "[pkt]\nrreq_bits = 0\n"),
    ("pkt.rrep_bits", "[pkt]\nrrep_bits = 0\n"),
    ("pkt.notify_bits", "[pkt]\nnotify_bits = 0\n"),
    ("pkt.data_header_bits", "[pkt]\ndata_header_bits = 0\n"),
    ("aodv.rreq_bits", "[aodv]\nrreq_bits = 0\n"),
    ("aodv.rrep_bits", "[aodv]\nrrep_bits = 0\n"),
    ("aodv.active_route_timeout_s", "[aodv]\nactive_route_timeout_s = 0\n"),
    ("aodv.ttl", "[aodv]\nttl = 0\n"),
    ("sim.duration_s", "[sim]\nduration_s = 0\n"),
    ("sim.warm_up_s", "[sim]\nwarm_up_s = -1\n"),
    ("sim.repetitions", "[sim]\nrepetitions = 0\n"),
    ("experiment.sizes", "[experiment]\nsizes = 10,1\n"),
    ("flow:1.rate_bps", "[flow:1]\nrate_bps = 0\n"),
    ("flow:1.packet_bits", "[flow:1]\nrate_bps = 1e3\npacket_bits = 0\n"),
    ("flow:1.start_s", "[flow:1]\nrate_bps = 1e3\nstart_s = 5\nstop_s = 5\n"),
    ("flow:1.required_bps", "[flow:1]\nrate_bps = 1e3\nrequired_bps = 0\n"),
    ("flow:1.source", "[topology]\nn = 12\n[flow:1]\nrate_bps = 1e3\nsource = 50\n"),
    ("flow:1.source", "[topology]\nn = 12\n[flow:1]\nrate_bps = 1e3\nsource = -1\n"),
    ("flow:1.source", "[experiment]\nsizes = 10,30\n[flow:1]\nrate_bps = 1e3\nsource = 20\n"),
    ("flow:1.source", "[experiment]\nsizes = 10,30\n[flow:1]\nrate_bps = 1e3\nsource = 10\n"),
]


@pytest.mark.parametrize("path,document", BAD_VALUES)
def test_error_names_the_key_holding_the_bad_value(path, document):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
        parse_config(document)


def test_every_checked_key_has_a_bad_value():
    checked = {name for name, key in DECLARED.items() if key.check is not None}
    checked |= {f"flow:1.{name}" for name, key in FLOW_KEYS.items() if key.check is not None}
    assert checked <= {path for path, _ in BAD_VALUES}


@pytest.mark.parametrize("document", [
    "[sim]\nduration_s = inf\n",
    "[energy]\ninitial_j = inf\n",
    "[dcf]\npayload_duration_s = nan\n",
    "[mac]\nb_no_bps = -inf\n",
    "[dcf]\ntable_distances = 100,nan\n",
])
def test_non_finite_numbers_rejected(document):
    section, key = re.match(r"\[(\w+)\]\n(\w+)", document).groups()
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected .*finite number"):
        parse_config(document)


def test_flow_source_below_the_smallest_network_size_parses():
    document = "[experiment]\nsizes = 10,30\n[flow:1]\nrate_bps = 1e3\nsource = 9\n"
    assert parse_config(document).flows[0].source == 9


@pytest.mark.parametrize("document", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n[topology]\nn = 12\n",
    "[DEFAULT]\nseed = 3\n[sim]\nduration_s = 3.0\n",
])
def test_default_section_rejected(document):
    with pytest.raises(ConfigError, match=r"^DEFAULT: unknown section"):
        parse_config(document)


def test_hello_expiry_counts_intervals():
    assert parse_config("[hello]\ninterval_s = 2.5\nexpiry_intervals = 4\n").hello.expiry == 10.0


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
        "[dcf]\ncw_min = 16\ncw_max = 256\ninterference_radius_m = 300.0\n"
        "[experiment]\nsizes = 20,30\n"
        "[flow:1]\nrate_bps = 250000.0\nstart_s = 1.5\nsource = 4\n"
        "[flow:2]\nrate_bps = 125000.0\n"
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_default_round_trip():
    cfg = parse_config("")
    assert parse_config(emit_config(cfg)) == cfg


DEFAULTS = parse_config("")
STRING_CHOICES = {"protocol.name": ("qgrp", "aodv"), "retry.policy": ("retry", "reduce")}
FRACTIONS = {"weights.alpha", "weights.beta", "hello.jitter"}


def valid_values(name, key):
    """Values of one declared key that pass its own check."""
    default = reduce(getattr, key.path, DEFAULTS)
    if name in STRING_CHOICES:
        return st.sampled_from(STRING_CHOICES[name])
    if isinstance(default, int):
        base = st.integers(2, 10**6)
    elif name in FRACTIONS:
        base = st.floats(0.0, 1.0, exclude_max=True)
    elif isinstance(default, float):
        base = st.floats(1e-12, 1e9)
    elif default and isinstance(default[0], float):
        base = st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4, unique=True)
        base = base.map(lambda values: tuple(sorted(values)))
    else:
        base = st.lists(st.integers(2, 500), max_size=3).map(tuple)
    return base.filter(lambda value: key.check is None or key.check(value) is None)


def render(value):
    """A value as a document writes it."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


@st.composite
def documents(draw):
    """A document setting every declared key to a valid value, and its values."""
    values = {name: draw(valid_values(name, key)) for name, key in DECLARED.items()}
    # Rules across keys: cw_max = cw_min * 2^k, alpha + beta = 1, warm-up inside the run.
    values["dcf.cw_max"] = values["dcf.cw_min"] * 2 ** draw(st.integers(0, 6))
    values["weights.beta"] = 1.0 - values["weights.alpha"]
    duration = values["sim.duration_s"]
    values["sim.warm_up_s"] = duration * draw(st.floats(0.0, 1.0, exclude_max=True))
    assume(values["sim.warm_up_s"] < duration)
    lines, section = [], None
    for name, value in values.items():
        if DECLARED[name].section != section:
            section = DECLARED[name].section
            lines.append(f"[{section}]")
        lines.append(f"{DECLARED[name].name} = {render(value)}")
    n_min = min((values["topology.n"],) + values["experiment.sizes"])
    for flow_id in draw(st.lists(st.integers(0, 99), max_size=3, unique=True)):
        start = duration * draw(st.floats(0.0, 1.0, exclude_max=True))
        stop = draw(st.floats(start, duration))
        assume(start < stop)
        required = draw(st.floats(0.0, values["mac.b_no_bps"], exclude_min=True))
        lines += [f"[flow:{flow_id}]", f"rate_bps = {draw(st.floats(1e-3, 1e9))!r}",
                  f"packet_bits = {draw(st.integers(1, 10**5))}", f"start_s = {start!r}",
                  f"stop_s = {stop!r}", f"required_bps = {required!r}"]
        source = draw(st.none() | st.integers(0, n_min - 1))
        if source is not None:
            lines.append(f"source = {source}")
    return "\n".join(lines) + "\n", values


@settings(max_examples=60, deadline=None)
@given(documents())
def test_round_trip_over_every_declared_key(drawn):
    document, values = drawn
    cfg = parse_config(document)
    for name, value in values.items():
        assert reduce(getattr, DECLARED[name].path, cfg) == value, name
    text = emit_config(cfg)
    assert parse_config(text) == cfg
    assert emit_config(parse_config(text)) == text


TINY = (
    "[topology]\nn = 12\nseed = 4\nfield_width = 500.0\nfield_height = 500.0\n"
    "[sim]\nduration_s = 3.0\nwarm_up_s = 0.5\nrepetitions = 2\n"
    "[flow:1]\nrate_bps = 100000.0\nstart_s = 0.5\n"
)


@pytest.mark.parametrize("document,digest", [
    ("", "bcfd80fefa195131603bfc83e49374ede49c73213da8cf29c1327b44e7468f42"),
    (TINY + "[experiment]\nsizes = 12,20\n[flow:2]\nrate_bps = 5e4\nsource = 3\n",
     "137b3c9484d63bf9a09462de498459ccc20916bdd93461c80d478e0ab26c4448"),
])
def test_emitted_text_is_pinned(document, digest):
    """sha256 of emit_config's text: the emitted format is fixed byte for byte."""
    assert hashlib.sha256(emit_config(parse_config(document)).encode()).hexdigest() == digest


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


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
    assert (out / "runs.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("[weights]\nalpha = 2.0\n")
    assert main(["run", "-c", str(bad), "-o", str(out)]) == 2
    assert main(["run", "-c", str(tmp_path / "missing.cfg"), "-o", str(out)]) == 2

    capsys.readouterr()
    for jobs in ("0", "-3"):
        fresh = tmp_path / f"jobs{jobs}"
        assert main(["run", "-c", str(cfg_path), "-o", str(fresh), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("config error: --jobs: ")
        assert not fresh.exists()


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_cli_logs_hold_format_log_text(tmp_path, protocol):
    # 20 s makes the log longer than one chunk of the writer.
    document = (TINY.replace("repetitions = 2", "repetitions = 1")
                .replace("duration_s = 3.0", "duration_s = 20.0")
                + f"[protocol]\nname = {protocol}\n")
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(document)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg_path), "-o", str(out), "--logs"]) == 0
    log = simulator.run_scenario(parse_config(document)).event_log
    assert len(log) > simulator._FORMAT_CHUNK_ROWS
    written = (out / "logs" / f"{protocol}_12_4.log").read_bytes()
    assert written == simulator.format_log(log).encode()


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


@pytest.mark.parametrize("axis", [["--density-axis", "120,90"], ["--distance-axis", "100,100"],
                                  ["--density-axis=-5"]])
def test_cli_solve_dcf_rejects_bad_axis(tmp_path, capsys, axis):
    out = tmp_path / "table.csv"
    assert main(["solve-dcf", "-o", str(out), *axis]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {axis[0].split('=')[0]}: ")
    assert not out.exists()
