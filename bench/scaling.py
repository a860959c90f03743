"""On-demand scaling report over the ROADMAP aim-1 grid; not a gated workload.

    python3 bench/scaling.py

For n in {50, 100, 200, 400} and both protocols, with 3 flows x 20 kb/s,
100 simulated seconds and seed 1, runs one cell per grid point in a
fresh process.  It prints the CPU time
of `Engine.run` (unscaled), events per CPU second, peak RSS and log rows.
Events are counted by handing the engine a counting stand-in for its
heap module, which adds a small cost to the run time.
"""

from __future__ import annotations

import sys

import run
from workloads import CellSpec

SIZES = (50, 100, 200, 400)
PROTOCOLS = ("qgrp", "aodv")
DURATION_S = 100.0


def main() -> int:
    if not (run.ROOT / "src" / "qgrpsim" / "simulator.py").is_file():
        print(f"error: no qgrpsim sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"scaling grid: 3 x 20 kb/s, {DURATION_S:g} simulated s, seed {run.DEFAULT_SEED}")
    print(f"{'protocol':8s} {'n':>4s} {'run_cpu_s':>9s} {'events':>9s} {'events/s':>10s} "
          f"{'peak_rss_mb':>11s} {'log_rows':>9s}  check")
    status = 0
    with run.temp_log_dir() as tmp:
        for protocol in PROTOCOLS:
            for n in SIZES:
                spec = CellSpec(protocol, n, 3, 20_000.0, DURATION_S, run.DEFAULT_SEED)
                cell = run.run_cell_process(spec, tmp, count_events=True)
                if run.failed(cell):
                    status = 1
                    print(f"{protocol:8s} {n:4d}  {cell.get('error') or cell['problems']}")
                    continue
                print(f"{protocol:8s} {n:4d} {cell['run_s']:9.2f} {cell['events']:9d} "
                      f"{cell['events'] / cell['run_s']:10.0f} {cell['rss_mb']:11.1f} "
                      f"{cell['log_rows']:9d}  ok", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
