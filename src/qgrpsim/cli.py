"""Command-line interface: batch experiment runner, `verify` of its logs, table generation."""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, replace

from .config import ConfigError, ScenarioConfig, emit_config, parse_config
from .dcf import (REFERENCE_DENSITIES, REFERENCE_DISTANCES, ConvergenceError, DcfParams,
                  build_table, write_table_csv)
from .metrics import METRIC_NAMES, aggregate, compute_metrics
from .simulator import _log_chunks, read_rows, run_scenario

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2
COLUMNS = ("protocol", "n", "seed", *METRIC_NAMES)  # of runs.csv


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _row(protocol, n, seed, values) -> str:
    return f"{protocol},{n},{seed}," + ",".join(map(_fmt, values))


def _log_name(protocol, n, seed) -> str:
    return f"{protocol}_{n}_{seed}.log"


def _run_config(cfg, protocol, n: int) -> ScenarioConfig:
    return replace(cfg, topology=replace(cfg.topology, n=n), protocol=protocol)


def _one_run(args):
    """Worker: one (protocol, size, repetition) cell. Returns a row or an error."""
    cfg, protocol, n, rep, log_dir = args
    seed = cfg.topology.seed + rep
    try:
        result = run_scenario(_run_config(cfg, protocol, n), seed=seed)
    except Exception as exc:  # noqa: BLE001 - reported in the failure manifest
        return (protocol, n, seed, None, f"{type(exc).__name__}: {exc}")
    if log_dir is not None:
        path = os.path.join(log_dir, _log_name(protocol, n, seed))
        # Written chunk by chunk, so the whole text is never held in memory.
        with open(path, "w") as fh:
            fh.writelines(_log_chunks(result.event_log))
    return (protocol, n, seed, result.metrics, None)


def run_experiment(cfg: ScenarioConfig, output_dir, protocols=None, write_logs=False,
                   jobs=1) -> int:
    """Execute the configured grid and write its config, per-run plus aggregate CSVs.

    Runs are deterministic per (config, seed); output rows are sorted, so
    parallel execution cannot change any emitted byte.  Returns a process
    exit code.
    """
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, "scenario.cfg"), "w") as fh:
        fh.write(emit_config(cfg))
    log_dir = None
    if write_logs:
        log_dir = os.path.join(output_dir, "logs")
        os.makedirs(log_dir, exist_ok=True)
    protocols = list(protocols) if protocols else [cfg.protocol]
    sizes = list(cfg.sizes) if cfg.sizes else [cfg.topology.n]

    tasks = [
        (cfg, protocol, n, rep, log_dir)
        for protocol in protocols
        for n in sizes
        for rep in range(cfg.sim.repetitions)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_one_run, tasks))
    else:
        outcomes = [_one_run(task) for task in tasks]

    failures = [o for o in outcomes if o[4] is not None]
    results = sorted((o for o in outcomes if o[4] is None), key=lambda o: (o[0], o[1], o[2]))

    lines = [",".join(COLUMNS)]
    by_cell: dict[tuple[str, int], list] = {}
    for protocol, n, seed, metrics, _ in results:
        by_cell.setdefault((protocol, n), []).append(metrics)
        lines.append(_row(protocol, n, seed, astuple(metrics)))
    aggregates: dict[tuple[str, int], object] = {}
    for (protocol, n) in sorted(by_cell):
        agg = aggregate(by_cell[(protocol, n)])
        aggregates[(protocol, n)] = agg
        lines.append(_row(protocol, n, "avg", (agg.mean[name] for name in METRIC_NAMES)))
    with open(os.path.join(output_dir, "runs.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    for name in METRIC_NAMES:
        plot_lines = ["n," + ",".join(f"{p},{p}_stderr" for p in protocols)]
        for n in sizes:
            cells = []
            for protocol in protocols:
                agg = aggregates.get((protocol, n))
                if agg is None:
                    cells += ["", ""]
                else:
                    cells += [_fmt(agg.mean[name]), _fmt(agg.stderr[name])]
            plot_lines.append(f"{n}," + ",".join(cells))
        with open(os.path.join(output_dir, f"plot_{name}.csv"), "w") as fh:
            fh.write("\n".join(plot_lines) + "\n")

    if failures:
        with open(os.path.join(output_dir, "failures.txt"), "w") as fh:
            for protocol, n, seed, _, error in sorted(failures, key=lambda o: (o[0], o[1], o[2])):
                fh.write(f"{protocol},{n},{seed}: {error}\n")
        return EXIT_RUN_FAILURE
    return EXIT_OK


def verify(output_dir) -> int:
    """Check each per-run row of output_dir's runs.csv against its log under `logs/`.

    Exits 1 on a missing or unreadable log, one without a final newline or a metric
    that differs from the row, each printed on stderr; 2 if scenario.cfg or runs.csv
    is unreadable.  Each log is folded line by line as it is read.
    """
    try:
        cfg = _load_config(os.path.join(output_dir, "scenario.cfg"))
        with open(os.path.join(output_dir, "runs.csv")) as fh:
            header, *rows = (line.split(",") for line in fh.read().splitlines())
        if tuple(header) != COLUMNS or any(len(cells) != len(COLUMNS) for cells in rows):
            raise ValueError("runs.csv: expected the header and a cell per column")
        runs = [(cells[0], int(cells[1]), cells[2], cells) for cells in rows if cells[2] != "avg"]
    except (OSError, ConfigError, ValueError) as exc:
        print(f"cannot verify {output_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    problems = []
    for protocol, n, seed, cells in runs:
        path = os.path.join(output_dir, "logs", _log_name(protocol, n, seed))
        if not os.path.isfile(path):
            problems.append(f"{path}: missing")
            continue
        last = ""  # the log's last line, once it is read
        try:
            with open(path) as fh:
                metrics = compute_metrics(read_rows((last := line) for line in fh),
                                          _run_config(cfg, protocol, n))
        except (OSError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"{path}: unreadable: {type(exc).__name__}: {exc}")
            continue
        if not last.endswith("\n"):
            problems.append(f"{path}: does not end in a newline")
        got = _row(protocol, n, seed, astuple(metrics)).split(",")
        problems += [f"{path}: {name}: runs.csv has {old!r}, the log gives {new!r}"
                     for name, old, new in zip(COLUMNS, cells, got) if old != new]
    for problem in problems:
        print(problem, file=sys.stderr)
    return EXIT_RUN_FAILURE if problems else EXIT_OK


def solve_dcf_command(params: DcfParams, output_path) -> int:
    """Write the collision table that a run on params uses as CSV."""
    try:
        table = build_table(REFERENCE_DENSITIES, REFERENCE_DISTANCES, params)
    except ConvergenceError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    write_table_csv(table, output_path)
    return EXIT_OK


def _load_config(path) -> ScenarioConfig:
    if path is None:
        return parse_config("")
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qgrpsim",
        description="Packet-level simulator for a QoS/energy-aware geographic "
                    "routing protocol with an AODV baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # run and compare take the same arguments.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("-c", "--config", help="scenario config file")
    grid.add_argument("-o", "--output", required=True, help="output directory")
    grid.add_argument("--logs", action="store_true", help="also write per-run event logs")
    grid.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sub.add_parser("run", parents=[grid], help="run the configured experiment grid")
    sub.add_parser("compare", parents=[grid],
                   help="run both protocols and emit the six figure files")

    sub.add_parser("verify", help="check that each run's log gives its runs.csv row").add_argument(
        "dir", help="output directory of run or compare with --logs")

    dcf_p = sub.add_parser("solve-dcf",
                           help="write the collision table CSV that a run on the config uses")
    dcf_p.add_argument("-o", "--output", required=True, help="output CSV path")
    dcf_p.add_argument("-c", "--config", help="scenario config file supplying dcf parameters")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return verify(args.dir)
    if args.command in ("run", "compare") and args.jobs < 1:
        print(f"config error: --jobs: must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "run":
        return run_experiment(cfg, args.output, write_logs=args.logs, jobs=args.jobs)
    if args.command == "compare":
        return run_experiment(cfg, args.output, protocols=("qgrp", "aodv"),
                              write_logs=args.logs, jobs=args.jobs)
    if args.command == "solve-dcf":
        return solve_dcf_command(cfg.dcf, args.output)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
