import hashlib
import os
import re
import sys
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgrpsim import simulator
from qgrpsim.cli import main, run_experiment
from qgrpsim.config import FLOW_KEYS, KEYS, ConfigError, emit_config, parse_config
from qgrpsim.dcf import (REFERENCE_DENSITIES, REFERENCE_DISTANCES, DcfParams, build_table,
                        table_to_csv_text)

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
    assert cfg.dcf == DcfParams()


def test_beta_is_the_one_weight_key():
    # alpha is 1 - beta, exactly, and no key of its own.
    weights = parse_config("[weights]\nbeta = 0.25\n").weights
    assert (weights.alpha, weights.beta) == (0.75, 0.25)
    with pytest.raises(ConfigError, match=r"^weights\.alpha: unknown key"):
        parse_config("[weights]\nalpha = 0.7\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="topology.bogus"):
        parse_config("[topology]\nbogus = 1\n")
    # [dcf] has no switch between collision forms, the model has one, and no table axes:
    # every run solves the table on the reference grid.
    for name in ("reduced", "table_densities", "table_distances"):
        with pytest.raises(ConfigError, match=rf"^dcf\.{name}: unknown key"):
            parse_config(f"[dcf]\n{name} = 1\n")
    # AODV's RREQ and RREP sizes are [pkt]'s: [aodv] has no copy of them.
    for name in ("rreq_bits", "rrep_bits"):
        with pytest.raises(ConfigError, match=rf"^aodv\.{name}: unknown key"):
            parse_config(f"[aodv]\n{name} = 320\n")


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
    ("weights.beta", "[weights]\nbeta = -1.0\n"),
    ("dcf.cw_min", "[dcf]\ncw_min = 0\n"),
    ("dcf.cw_max", "[dcf]\ncw_max = 100\n"),
    ("dcf.cw_max", "[dcf]\ncw_max = 16\n"),
    ("dcf.payload_duration_s", "[dcf]\npayload_duration_s = 0\n"),
    ("dcf.virtual_slot_s", "[dcf]\nvirtual_slot_s = 0\n"),
    ("dcf.carrier_sense_radius_m", "[dcf]\ncarrier_sense_radius_m = 0\n"),
    ("dcf.interference_radius_m", "[dcf]\ninterference_radius_m = -1\n"),
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
        "[weights]\nbeta = 0.35\n"
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
FRACTIONS = {"weights.beta", "hello.jitter"}


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
    # Rules across keys: cw_max = cw_min * 2^k, warm-up inside the run.
    values["dcf.cw_max"] = values["dcf.cw_min"] * 2 ** draw(st.integers(0, 6))
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
    ("", "b1c31e985e1b31169d08953e49d64b621b609c17b25f0a258ede0ecc3cc8508c"),
    (TINY + "[experiment]\nsizes = 12,20\n[flow:2]\nrate_bps = 5e4\nsource = 3\n",
     "435c74c8c4248ad80ba678012c2a5a95ce456675bc0a70c71686a6c561217761"),
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
    bad.write_text("[weights]\nbeta = 2.0\n")
    assert main(["run", "-c", str(bad), "-o", str(out)]) == 2
    bad.write_text(TINY + "[aodv]\nrreq_bits = 320\n")
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
    # The table a run uses: the reference grid, solved on the default [dcf].
    table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, DcfParams())
    assert out.read_text() == table_to_csv_text(table)

    again = tmp_path / "table2.csv"
    assert main(["solve-dcf", "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_cli_solve_dcf_reads_the_dcf_section(tmp_path):
    default = tmp_path / "default.csv"
    assert main(["solve-dcf", "-o", str(default)]) == 0
    cfg_path = tmp_path / "narrow.cfg"
    cfg_path.write_text("[dcf]\ncw_min = 16\n")
    out = tmp_path / "narrow.csv"
    assert main(["solve-dcf", "-c", str(cfg_path), "-o", str(out)]) == 0
    table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, DcfParams(cw_min=16))
    assert out.read_text() == table_to_csv_text(table) != default.read_text()


def test_cli_solve_dcf_rejects_a_bad_dcf_section(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[dcf]\ncw_max = 100\n")
    out = tmp_path / "table.csv"
    assert main(["solve-dcf", "-c", str(cfg_path), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: dcf.cw_max: ")
    assert not out.exists()


def logged_output(tmp_path, command="run", document=TINY):
    """The output directory of `command` run on document with --logs."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(document)
    out = tmp_path / command
    assert main([command, "-c", str(cfg_path), "-o", str(out), "--logs"]) == 0
    return out


def test_verify_checks_every_log_of_a_compare_grid(tmp_path, capsys):
    document = TINY + "[experiment]\nsizes = 12,14\n"
    out = logged_output(tmp_path, "compare", document)
    # The config verify reads is the one that ran.
    assert parse_config((out / "scenario.cfg").read_text()) == parse_config(document)
    logs = sorted(os.listdir(out / "logs"))
    assert len(logs) == 8  # two protocols, two sizes, two repetitions
    assert main(["verify", str(out)]) == 0
    # Each log is read: without it, verify fails and names it.
    for name in logs:
        (out / "logs" / name).rename(tmp_path / name)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().err == f"{out / 'logs' / name}: missing\n"
        (tmp_path / name).rename(out / "logs" / name)


def test_verify_names_each_metric_a_deleted_deliver_row_changes(tmp_path, capsys):
    out = logged_output(tmp_path)
    log = out / "logs" / "qgrp_12_4.log"
    lines = log.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if ",'deliver'," in line)
    log.write_text("".join(lines[:first] + lines[first + 1:]))
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    named = re.findall(rf"^{re.escape(str(log))}: (\w+): runs\.csv has ", err, re.M)
    assert named == ["throughput", "pdr", "mean_delay", "energy_efficiency"]


def test_verify_passes_on_run_output_and_fails_without_a_final_newline_or_a_log(
        tmp_path, capsys):
    out = logged_output(tmp_path)
    assert sorted(os.listdir(out / "logs")) == ["qgrp_12_4.log", "qgrp_12_5.log"]
    assert main(["verify", str(out)]) == 0
    log = out / "logs" / "qgrp_12_5.log"
    log.write_text(log.read_text()[:-1])
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == f"{log}: does not end in a newline\n"
    log.unlink()
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == f"{log}: missing\n"


def test_verify_names_each_unreadable_log_and_goes_on(tmp_path, capsys):
    out = logged_output(tmp_path, "compare", TINY.replace("repetitions = 2", "repetitions = 3"))
    logs = [out / "logs" / name for name in sorted(os.listdir(out / "logs"))]
    assert len(logs) == 6  # two protocols, three repetitions
    # A line that is no row, a row too short for the fold, a chain of 200 000 additions,
    # a row whose id has 5 000 digits, and a log without a row.  int() refuses that id only
    # where Python limits the digits of an int string (CPython 3.10.7 and later).
    limited = hasattr(sys, "get_int_max_str_digits")
    logs[0].write_text(logs[0].read_text() + "not a row\n")
    logs[1].write_text(logs[1].read_text() + "0.0,1\n")
    lines = logs[2].read_text().splitlines(keepends=True)
    logs[2].write_text("".join([lines[0], "1" + "+1" * 200_000 + "\n"] + lines[2:]))
    if limited:
        logs[3].write_text(logs[3].read_text() + "0.0," + "1" * 5_000 + ",'death'\n")
    logs[4].write_text("\n")
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.findall(r"^(.*): unreadable: (\w+): ", err, re.M) == [
        (str(logs[0]), "ValueError"), (str(logs[1]), "IndexError"),
        (str(logs[2]), "ValueError")] + [(str(logs[3]), "ValueError")] * limited + [
        (str(logs[4]), "ZeroDivisionError")]
    assert len(err.splitlines()) == 4 + limited  # the intact logs pass


def test_verify_exits_2_when_the_directory_cannot_be_read(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent")]) == 2
    out = logged_output(tmp_path)
    runs = out / "runs.csv"
    text = runs.read_text()
    for broken in ("", "protocol,n,seed\n", text.replace(",avg,", ",avg,1.0,")):
        runs.write_text(broken)
        assert main(["verify", str(out)]) == 2
    runs.write_text(text)
    (out / "scenario.cfg").write_text("[topology]\nn = 1\n")
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err.count("cannot verify ") == 5
