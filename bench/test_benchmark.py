"""Tests of the benchmark's own machinery: tracing, output checks, the runner."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import cell  # noqa: E402  (puts the package sources on sys.path)
import tracing  # noqa: E402
from qgrpsim import simulator  # noqa: E402
from qgrpsim.qgrp import QgrpNode  # noqa: E402
from tracing import COUNTERS, SPANS, Tracer, layer_metrics, log_counts  # noqa: E402
from workloads import WORKLOADS, CellSpec, scenario_config  # noqa: E402

SMALL_QGRP = CellSpec("qgrp", 40, 2, 20_000.0, 8.0, seed=3)
SMALL_AODV = dataclasses.replace(SMALL_QGRP, protocol="aodv")


def _targets():
    for table in (SPANS, COUNTERS):
        for targets in table.values():
            yield from targets


def test_wrappers_restored_after_traced_cell(tmp_path):
    originals = {(id(owner), attr): getattr(owner, attr) for owner, attr in _targets()}
    heapq_module = simulator.heapq
    traced = cell.run_cell(dataclasses.replace(SMALL_QGRP, trace=True), str(tmp_path))
    for owner, attr in _targets():
        current = getattr(owner, attr)
        assert current is originals[(id(owner), attr)]
        assert not hasattr(current, "__wrapped__")
    assert simulator.heapq is heapq_module
    plain = cell.run_cell(SMALL_QGRP, str(tmp_path))
    assert plain["sha256"] == traced["sha256"]
    assert plain["problems"] == traced["problems"] == []


def test_trace_counts_match_log_counts():
    extra = {
        "t.on_hello": [(QgrpNode, "on_hello")],
        "t.handle_rreq": [(QgrpNode, "handle_rreq")],
        "t.on_timer": [(QgrpNode, "on_timer")],
    }
    cfg = scenario_config(SMALL_QGRP)
    tracer = Tracer(spans=dict(SPANS, **extra))
    with tracer:
        engine = simulator.Engine(cfg, SMALL_QGRP.seed)
        tracer.instrument_engine(engine)
        engine.run()
    log = engine.event_log
    counts = log_counts(log, "qgrp")
    assert not any(row[2] == "death" for row in log)
    assert counts["hello_rx"] > 0 and counts["qgrp_rreq_rx"] > 0
    assert tracer.layer("t.on_hello").count == counts["hello_rx"]
    assert tracer.layer("t.handle_rreq").count == counts["qgrp_rreq_rx"]
    assert tracer.layer("simulator.arrival").count == counts["rx"]
    # With no deaths every dispatched event is an arrival, a timer, an
    # emission, a flow start or the end of a transmission.
    origins = sum(1 for row in log if row[2] == "origin")
    tx_rows = counts["tx_unicast"] + counts["tx_broadcast"]
    expected = (counts["rx"] + tracer.layer("t.on_timer").count + origins
                + len(engine.flows) + tx_rows)
    assert tracer.events(cfg.sim.duration) == expected
    layers = layer_metrics(tracer, counts, {"events": expected, "log_rows": len(log),
                                            "log_bytes": 0})
    assert layers["qgrp.hello_rx"] == counts["hello_rx"]
    assert layers["qgrp.rreq_handled"] == counts["qgrp_rreq_rx"]
    assert layers["simulator.busy_charge_updates"] > 0
    assert 0.0 < layers["qgrp.refresh_hit_ratio"] < 1.0


def test_missing_wrapped_name_is_null(monkeypatch):
    monkeypatch.delattr(simulator.Engine, "_charge_busy")
    tracer = Tracer(spans=dict(SPANS, **{"t.gone": [(simulator, "no_such_function")]}))
    with tracer:
        tracer.instrument_engine(object())
    assert tracer.layer("simulator.busy_charge") is None
    assert tracer.layer("t.gone") is None
    assert tracer.layer(tracing.BUSY_WRITES) is None
    counts = dict.fromkeys(log_counts([], "qgrp"), 0)
    layers = layer_metrics(tracer, counts, {"events": 0, "log_rows": 0, "log_bytes": 0})
    assert layers["simulator.busy_charge_s"] is None
    assert layers["simulator.busy_charge_updates"] is None
    assert layers["simulator.transmit_s"] == 0.0
    assert not hasattr(simulator, "no_such_function")


def test_aodv_cell_skips_every_qgrp_layer(tmp_path):
    spec = dataclasses.replace(SMALL_AODV, trace=True)
    layers = cell.run_cell(spec, str(tmp_path))["layers"]
    for name, value in layers.items():
        if name.startswith(("qgrp.", "link_estimation.")) or name == "simulator.idle_reads":
            assert value == 0, name
    assert layers["aodv.on_packet_s"] > 0
    assert layers["simulator.format_log_s"] == 0.0
    persisted = cell.run_cell(dataclasses.replace(spec, persist_log=True), str(tmp_path))
    assert persisted["layers"]["simulator.format_log_s"] > 0
    assert persisted["layers"]["simulator.log_bytes"] > 0
    assert list(tmp_path.iterdir()) == []


def test_round_trip_reproduces_live_metrics(tmp_path):
    record = cell.run_cell(dataclasses.replace(SMALL_QGRP, round_trip=True), str(tmp_path))
    assert record["problems"] == []
    assert record["parse_log_s"] > 0


def test_low_pdr_passes_the_output_check(tmp_path):
    # Seed 5 of the 40 s heavy scenario loses routes; that is a simulated result.
    heavy = WORKLOADS["qgrp_n100_heavy"]
    spec = dataclasses.replace(heavy.spec(5), duration_s=40.0)
    record = cell.run_cell(spec, str(tmp_path))
    assert record["problems"] == []
    assert 0.3 < record["figures"]["pdr"] < 0.45


def test_output_check_flags_broken_outputs():
    cfg = scenario_config(SMALL_QGRP)
    engine = simulator.Engine(cfg, SMALL_QGRP.seed).run()
    live = cell.metrics.compute_metrics(engine.event_log, cfg)
    assert cell.check_cell(engine, live, cfg) == []
    bad = dataclasses.replace(live, throughput=math.nan, pdr=1.5)
    assert len(cell.check_cell(engine, bad, cfg)) == 2
    engine.event_log.append((0.5,) + engine.event_log[-1][1:])
    engine.nodes[0].energy.residual = cfg.energy.initial + 1.0
    problems = cell.check_cell(engine, live, cfg)
    assert any("decrease" in p for p in problems)
    assert any("residual" in p for p in problems)


def test_pc_ref_max_dev_is_zero_on_the_reference_table():
    from qgrpsim.dcf import reference_table

    assert cell.pc_ref_max_dev(reference_table()) == 0.0


def test_benchmark_json_matches_the_runner():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    counts = dict.fromkeys(log_counts([], "qgrp"), 0)
    produced = set(layer_metrics(Tracer(), counts, {"events": 0, "log_rows": 0, "log_bytes": 0}))
    produced |= {"simulator.events_per_s", "simulator.parse_log_s", "trace.overhead_s"}
    assert {m["name"] for m in config["per_layer"]} == produced


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qgrp_n100_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_record_mismatch_is_reported():
    import run

    stale = {"seed": 1, "figures": {}, "events": 0, "log_rows": 0, "sha256": "0" * 64,
             "problems": []}
    assert run.compare_with_record("qgrp_n100_heavy", 1, [stale]) == [1]
    assert run.compare_with_record("qgrp_n100_heavy", 123456, [stale]) is None
