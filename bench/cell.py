"""One simulation cell, run in a fresh single-threaded process.

    python3 bench/cell.py '<CellSpec as JSON>' <directory for the persisted log>

A cell does what `qgrpsim run` does for one (protocol, size, seed):
`Engine(cfg, seed)`, `.run()`, `compute_metrics` and, when the spec
persists the log, `format_log` plus a write to a file.  It prints one
JSON object with its host timings, peak RSS, simulated statistics, the
problems its output check found and, when traced, the per-layer split.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qgrpsim import metrics, simulator  # noqa: E402
from qgrpsim.dcf import REFERENCE_DENSITIES, REFERENCE_DISTANCES, REFERENCE_PC, lookup_p_c  # noqa: E402
from qgrpsim.metrics import METRIC_NAMES  # noqa: E402

from tracing import Tracer, group_self_times, layer_metrics, log_counts  # noqa: E402
from workloads import CellSpec, scenario_config  # noqa: E402


def check_cell(engine, live, cfg) -> list[str]:
    """Problems with one cell's outputs; an empty list means the cell is correct.

    A low delivery ratio is a simulated result, not a problem.
    """
    problems = []
    initial = cfg.energy.initial
    duration = cfg.sim.duration

    def in_range(name, lo, hi, allow_none=False):
        value = getattr(live, name)
        if value is None:
            if not allow_none:
                problems.append(f"{name} is undefined")
        elif not (math.isfinite(value) and lo <= value <= hi):
            problems.append(f"{name}={value!r} outside [{lo}, {hi}]")

    delivered_any = live.pdr is not None and live.pdr > 0
    in_range("throughput", 0.0, cfg.mac.b_no)
    in_range("pdr", 0.0, 1.0)
    in_range("mean_delay", 0.0, duration, allow_none=not delivered_any)
    in_range("mean_residual_energy", 0.0, initial)
    in_range("energy_efficiency", 0.0, math.inf, allow_none=not delivered_any)
    in_range("std_energy_deviation", 0.0, initial)
    if delivered_any and (live.mean_delay is None or live.energy_efficiency is None):
        problems.append("packets delivered but delay or efficiency undefined")

    for node in engine.topology.nodes:
        if not 0.0 <= node.energy.residual <= node.energy.initial:
            problems.append(f"node {node.id} residual {node.energy.residual!r} "
                            f"outside [0, {node.energy.initial}]")
            break

    prev = 0.0
    backwards = 0
    for row in engine.event_log:
        t = row[0]
        if t < prev:
            backwards += 1
        prev = t
    if backwards:
        problems.append(f"{backwards} log timestamps decrease")
    if engine.event_log and not 0.0 <= prev <= duration:
        problems.append(f"last log timestamp {prev!r} outside [0, {duration}]")
    return problems


def pc_ref_max_dev(table) -> float:
    """Largest |p_c(table) - REFERENCE_PC| over the reference axes."""
    return max(
        abs(lookup_p_c(table, density, dist) - REFERENCE_PC[i][j])
        for i, density in enumerate(REFERENCE_DENSITIES)
        for j, dist in enumerate(REFERENCE_DISTANCES)
    )


def run_cell(spec: CellSpec, log_dir: str, count_events: bool = False) -> dict:
    """Run one cell in this process and return its record.

    With `spec.trace` every layer is wrapped; with only `count_events`
    the dispatched events are counted and nothing is timed per layer.
    """
    cfg = scenario_config(spec)
    # CPU time of this single-threaded process: on a shared host it leaves
    # out the time the process was not running.  Wall time is kept for the run.
    clock = time.process_time

    if spec.trace:
        tracer = Tracer()
    elif count_events:
        tracer = Tracer(spans={}, counters={})
    else:
        tracer = None
    text = None
    log_bytes = 0
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = clock()
        engine = simulator.Engine(cfg, spec.seed)
        t1 = clock()
        if spec.trace:
            tracer.instrument_engine(engine)
        t1b = clock()
        wall = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - wall
        t2 = clock()
        live = metrics.compute_metrics(engine.event_log, cfg)
        t3 = clock()
        if spec.persist_log:
            text = simulator.format_log(engine.event_log)
            path = os.path.join(log_dir, f"{spec.protocol}_{spec.n}_{spec.seed}.log")
            with open(path, "w") as fh:
                fh.write(text)
        t4 = clock()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.persist_log:
        log_bytes = os.path.getsize(path)
        os.remove(path)

    # Outside the timed region, with every original function back in place.
    if text is None:
        text = simulator.format_log(engine.event_log)
    log = engine.event_log
    record = {
        "seed": spec.seed,
        "setup_s": t1 - t0,
        "run_s": t2 - t1b,
        "run_wall_s": wall,
        "cell_s": (t1 - t0) + (t4 - t1b),
        "sim_s": cfg.sim.duration,
        "rss_mb": rss_mb,
        "pc_ref_max_dev": pc_ref_max_dev(engine.table),
        "figures": {name: getattr(live, name) for name in METRIC_NAMES},
        "log_rows": len(log),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "problems": check_cell(engine, live, cfg),
        "events": None if tracer is None else tracer.events(cfg.sim.duration),
    }
    if spec.trace:
        counts = log_counts(log, spec.protocol)
        record["layers"] = layer_metrics(tracer, counts, dict(record, log_bytes=log_bytes))
        record["groups"] = group_self_times(tracer)
    if spec.round_trip:
        start = clock()
        parsed = simulator.parse_log(text)
        record["parse_log_s"] = clock() - start
        if metrics.compute_metrics(parsed, cfg) != live:
            record["problems"].append("metrics of parse_log(format_log(log)) differ from live")
    return record


def main(argv: list[str]) -> int:
    spec = CellSpec(**json.loads(argv[1]))
    count_events = len(argv) > 3 and argv[3] == "--count-events"
    try:
        record = run_cell(spec, argv[2], count_events)
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed cell
        record = {"seed": spec.seed, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
