"""qgrpsim benchmark: host time and memory per simulation cell.

    python3 bench/run.py --workload qgrp_n100_heavy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --record      # rewrite bench/recorded_stats.json

Runs the workload's panel of cell seeds in rounds, each cell in a fresh
process; --seconds sets the number of rounds.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer split of traced cells.  Every cell's output is checked; the
last line of standard output is one JSON object with the result.
See bench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CELL = BENCH / "cell.py"
RECORD = BENCH / "recorded_stats.json"

# End-to-end timings are CPU seconds of the cell processes scaled to a
# nominal host speed (see set_scales).  The host is shared and its speed
# drifts by tens of percent over minutes, so the runner times a fixed loop
# (calibration_readings) before and after every cell.
NOMINAL_CALIBRATION_S = 0.02
CALIBRATION_WINDOW = 2
TRACE_PANEL = 4
CELL_TIMEOUT_S = 120.0
DEFAULT_SEED = 1
HELD_OUT_SEED = 99

FIGURE_UNITS = {
    "throughput": "bit/s",
    "pdr": "ratio",
    "mean_delay": "sim-s",
    "mean_residual_energy": "J",
    "energy_efficiency": "J/packet",
    "std_energy_deviation": "J",
}


def temp_log_dir():
    """A fresh directory inside the checkout for the logs that cells persist."""
    return tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT)


def calibration_readings(repeats: int = 5, n: int = 20_000, size: int = 1 << 20) -> list[float]:
    """CPU seconds of a fixed pure-Python loop, once per repeat: the host's current speed.

    The loop does heap, dict, tuple and float work, like the engine, and
    reads an 8 MB array at scattered places, so that it also slows down
    when other processes on the host take the caches.  It runs in the
    runner, not in the cell, so that it adds nothing to a cell's peak RSS.
    """
    big = array("d", [0.5]) * size
    mask = size - 1
    out = []
    for _ in range(repeats):
        start = time.process_time()
        heap: list = []
        totals: dict = {}
        x, acc = 12345, 0.0
        for i in range(n):
            x = (x * 1103515245 + 12345) & mask
            heapq.heappush(heap, (big[x] + x, i))
            if len(heap) > 256:
                t, seq = heapq.heappop(heap)
                totals[x & 4095] = totals.get(x & 4095, 0.0) + t
                acc += math.sqrt(t + 1.0)
        out.append(time.process_time() - start)
    return out


def run_cell_process(spec, log_dir: str, count_events=False) -> dict:
    """Run one cell in a fresh interpreter and return its record (or an error)."""
    cmd = [sys.executable, str(CELL), json.dumps(dataclasses.asdict(spec)), log_dir]
    if count_events:
        cmd.append("--count-events")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CELL_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"seed": spec.seed, "error": f"cell timed out after {CELL_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": spec.seed, "error": f"cell exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def failed(cell: dict) -> bool:
    return "error" in cell or bool(cell["problems"])


def run_rounds(workload, seed: int, seconds: float, trace: bool, log_dir: str) -> list[dict]:
    """Run the panel round after round and return every cell record.

    The number of rounds follows from --seconds and the workload's nominal
    round length, not from the clock, so a faster program does the same
    cells.  A traced run makes one round over the first TRACE_PANEL seeds
    and pairs an untraced and a traced cell on each.  After a single
    untraced round the first seed runs once more, so that every run
    compares two logs of one seed.
    """
    cells = []
    cell_seeds = workload.cell_seeds(seed)
    if trace:
        cell_seeds, rounds = cell_seeds[:TRACE_PANEL], 1
    else:
        rounds = max(1, round(seconds / workload.round_seconds))
    variants = (False, True) if trace else (False,)
    readings = calibration_readings()

    def run(cell_seed, traced, round_trip=False):
        nonlocal readings
        spec = workload.spec(cell_seed, trace=traced, round_trip=round_trip)
        record = run_cell_process(spec, log_dir)
        after = calibration_readings()
        # The mean, not the best reading: it follows the slowdowns the cell
        # itself met, which last from a fraction of a second to minutes.
        record["calibration_s"] = statistics.mean(readings + after)
        record["traced"] = traced
        readings = after
        cells.append(record)

    for r in range(rounds):
        for i, cell_seed in enumerate(cell_seeds):
            for traced in variants:
                run(cell_seed, traced, workload.round_trip and r == i == 0 and not traced)
    if rounds == 1 and not trace:
        run(cell_seeds[0], False)
    return cells


def check_digests(cells: list[dict]) -> None:
    """Every cell of one cell seed must produce the same log; mark those that do not."""
    first: dict[int, str] = {}
    for cell in cells:
        if "error" in cell:
            continue
        ref = first.setdefault(cell["seed"], cell["sha256"])
        if cell["sha256"] != ref:
            cell["problems"].append("log digest differs from the first cell of this seed")


def _per_seed(cells, value, traced=False):
    """{cell seed: median of value(cell) over the seed's good cells}."""
    by_seed: dict[int, list] = {}
    for cell in cells:
        if not failed(cell) and cell["traced"] == traced:
            by_seed.setdefault(cell["seed"], []).append(value(cell))
    return {seed: statistics.median(values) for seed, values in by_seed.items()}


def set_scales(cells) -> None:
    """Give each cell the factor that scales its CPU times to the nominal host speed.

    The factor uses the median calibration reading of the cell and its
    CALIBRATION_WINDOW neighbours on each side, in run order: one noisy
    reading moves it little, while a drift of the host over tens of
    seconds still shows.
    """
    readings = [c["calibration_s"] for c in cells]
    for i, cell in enumerate(cells):
        window = readings[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        cell["scale"] = NOMINAL_CALIBRATION_S / statistics.median(window)


def end_to_end(cells, workload) -> dict:
    good = [c for c in cells if not failed(c)]
    if not good:
        return {}
    set_scales(cells)
    run_s = _per_seed(cells, lambda c: c["run_s"] * c["scale"])
    return {
        "setup_s": statistics.median(c["setup_s"] * c["scale"] for c in good),
        "sim_speed": workload.duration_s * len(run_s) / sum(run_s.values()),
        "cell_s": statistics.mean(_per_seed(cells, lambda c: c["cell_s"] * c["scale"]).values()),
        "peak_rss_mb": statistics.mean(_per_seed(cells, lambda c: c["rss_mb"]).values()),
        "pc_ref_max_dev": statistics.median(c["pc_ref_max_dev"] for c in good),
    }


def unscaled_sim_speed(cells, workload) -> tuple[float, float]:
    """sim_speed from raw CPU time and from wall time, for comparison."""
    cpu = _per_seed(cells, lambda c: c["run_s"])
    wall = _per_seed(cells, lambda c: c["run_wall_s"])
    return (workload.duration_s * len(cpu) / sum(cpu.values()),
            workload.duration_s * len(wall) / sum(wall.values()))


def per_layer(cells, layer_units) -> dict:
    traced = [c for c in cells if c["traced"] and not failed(c)]
    seeds = sorted({c["seed"] for c in traced})
    out = {}
    for name in layer_units:
        if name in ("simulator.events_per_s", "simulator.parse_log_s", "trace.overhead_s"):
            continue
        values = [c["layers"][name] for c in traced]
        if not values or any(v is None for v in values):
            out[name] = None
            continue
        out[name] = statistics.mean(
            statistics.median(c["layers"][name] for c in traced if c["seed"] == s)
            for s in seeds
        )
    plain_run = _per_seed(cells, lambda c: c["run_s"])
    traced_run = _per_seed(cells, lambda c: c["run_s"], traced=True)
    events = _per_seed(cells, lambda c: c["events"], traced=True)
    both = [s for s in seeds if s in plain_run]
    out["simulator.events_per_s"] = (
        statistics.mean(events[s] / plain_run[s] for s in both)
        if both and all(events[s] is not None for s in both) else None
    )
    out["trace.overhead_s"] = (
        statistics.mean(traced_run[s] - plain_run[s] for s in both) if both else None
    )
    parse = [c["parse_log_s"] for c in cells if "parse_log_s" in c]
    out["simulator.parse_log_s"] = parse[0] if parse else 0.0
    return out


def print_group_shares(cells) -> None:
    traced = [c for c in cells if c["traced"] and not failed(c)]
    if not traced:
        return
    shares: dict[str, list[float]] = {}
    for cell in traced:
        total = sum(cell["groups"].values()) or 1.0
        for group, value in cell["groups"].items():
            shares.setdefault(group, []).append(value / total)
    print("share of traced self time, by layer:")
    for group, values in sorted(shares.items(), key=lambda kv: -statistics.mean(kv[1])):
        print(f"  {statistics.mean(values):7.1%}  {group}")


def simulated_stats(cell: dict) -> dict:
    return {
        "figures": cell["figures"],
        "events": cell["events"],
        "log_rows": cell["log_rows"],
        "sha256": cell["sha256"],
    }


def compare_with_record(name, seed, cells) -> list[int] | None:
    """The cell seeds whose simulated statistics differ from the record.

    None when the record has no entry for this workload seed.
    """
    try:
        recorded = json.loads(RECORD.read_text())["workloads"][name][str(seed)]
    except (OSError, KeyError, ValueError):
        print(f"simulated statistics: no record for {name} seed {seed}")
        return None
    mismatches = []
    for cell in cells:
        if "error" in cell:
            continue
        want = recorded.get(str(cell["seed"]))
        got = simulated_stats(cell)
        if cell["events"] is None:
            got["events"] = want and want["events"]
        if want != got:
            mismatches.append(cell["seed"])
    mismatches = sorted(set(mismatches))
    if mismatches:
        print(f"simulated statistics DIFFER from the record for cell seeds {mismatches}")
    else:
        print(f"simulated statistics equal the record for {name} seed {seed}")
    return mismatches


def print_cells(cells) -> None:
    seen = set()
    for cell in cells:
        if "error" in cell:
            print(f"  cell seed {cell['seed']}: ERROR {cell['error']}")
            continue
        for problem in cell["problems"]:
            print(f"  cell seed {cell['seed']}: CHECK FAILED {problem}")
        if cell["seed"] in seen:
            continue
        seen.add(cell["seed"])
        figures = " ".join(
            f"{k}={v:.6g}{FIGURE_UNITS[k]}" if v is not None else f"{k}=undefined"
            for k, v in cell["figures"].items()
        )
        print(f"  cell seed {cell['seed']}: {figures} log_rows={cell['log_rows']} "
              f"sha256={cell['sha256'][:16]}")


def record_stats(workloads, log_dir: str) -> int:
    """Run one event-counting cell per panel seed and write the simulated statistics."""
    out = {"units": FIGURE_UNITS, "workloads": {}}
    ok = True
    for name, workload in workloads.items():
        per_seed = out["workloads"].setdefault(name, {})
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            per_seed[str(seed)] = {}
            for cell_seed in workload.cell_seeds(seed):
                cell = run_cell_process(workload.spec(cell_seed), log_dir, count_events=True)
                if "error" in cell or cell["problems"]:
                    print(f"{name} cell seed {cell_seed}: {cell.get('error', cell.get('problems'))}",
                          file=sys.stderr)
                    ok = False
                    continue
                per_seed[str(seed)][str(cell_seed)] = simulated_stats(cell)
                print(f"{name} cell seed {cell_seed}: {cell['log_rows']} rows, "
                      f"{cell['events']} events", flush=True)
    RECORD.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded simulated statistics and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qgrpsim" / "simulator.py").is_file():
        print(f"error: no qgrpsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.record:
        with temp_log_dir() as tmp:
            return record_stats(WORKLOADS, tmp)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with temp_log_dir() as tmp:
        cells = run_rounds(workload, args.seed, args.seconds, bool(args.trace), tmp)

    check_digests(cells)
    n_failed = sum(failed(c) for c in cells)
    seeds = workload.cell_seeds(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  cell seeds {seeds}  "
          f"cells {len(cells)}  trace {'on' if args.trace else 'off'}")
    print_cells(cells)
    mismatches = compare_with_record(args.workload, args.seed, cells)
    print(f"  cell_error_rate = {n_failed / len(cells):.4g} ratio  ({n_failed} of {len(cells)} cells)")

    if args.trace:
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        values = per_layer(cells, units)
        print_group_shares(cells)
    else:
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}
        values = end_to_end(cells, workload)
        if values:
            cpu, wall = unscaled_sim_speed(cells, workload)
            print(f"  unscaled sim_speed: {cpu:.6g} (CPU time), {wall:.6g} (wall time)")
    n_good = len(cells) - n_failed
    for name, unit in units.items():
        value = values.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}  (from {n_good} cells)")

    # Report-only: the record match is not part of `correct`.  The result
    # line below may carry only its four keys, so the match gets a line of its own.
    print(json.dumps({"record_match": None if mismatches is None else not mismatches,
                      "record_mismatches": mismatches}))
    result = {
        "correct": n_failed == 0,
        "attempted": len(cells),
        "failed": n_failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
