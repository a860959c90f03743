"""Command-line interface: batch experiment runner and table generation."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import KEYS, ConfigError, ScenarioConfig, parse_config
from .dcf import ConvergenceError, DcfParams, build_table, write_table_csv
from .metrics import METRIC_NAMES, aggregate
from .simulator import format_log, run_scenario

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _one_run(args):
    """Worker: one (protocol, size, repetition) cell. Returns a row or an error."""
    cfg, protocol, n, rep, log_dir = args
    seed = cfg.topology.seed + rep
    run_cfg = dataclasses.replace(
        cfg, topology=dataclasses.replace(cfg.topology, n=n), protocol=protocol
    )
    try:
        result = run_scenario(run_cfg, seed=seed)
    except Exception as exc:  # noqa: BLE001 - reported in the failure manifest
        return (protocol, n, seed, None, f"{type(exc).__name__}: {exc}")
    if log_dir is not None:
        path = os.path.join(log_dir, f"{protocol}_{n}_{seed}.log")
        with open(path, "w") as fh:
            fh.write(format_log(result.event_log))
    return (protocol, n, seed, result.metrics, None)


def run_experiment(cfg: ScenarioConfig, output_dir, protocols=None, write_logs=False,
                   jobs=1) -> int:
    """Execute the configured grid and write per-run plus aggregate CSVs.

    Runs are deterministic per (config, seed); output rows are sorted, so
    parallel execution cannot change any emitted byte.  Returns a process
    exit code.
    """
    os.makedirs(output_dir, exist_ok=True)
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

    header = "protocol,n,seed," + ",".join(METRIC_NAMES)
    lines = [header]
    by_cell: dict[tuple[str, int], list] = {}
    for protocol, n, seed, metrics, _ in results:
        by_cell.setdefault((protocol, n), []).append(metrics)
        values = ",".join(_fmt(getattr(metrics, name)) for name in METRIC_NAMES)
        lines.append(f"{protocol},{n},{seed},{values}")
    aggregates: dict[tuple[str, int], object] = {}
    for (protocol, n) in sorted(by_cell):
        agg = aggregate(by_cell[(protocol, n)])
        aggregates[(protocol, n)] = agg
        values = ",".join(_fmt(agg.mean[name]) for name in METRIC_NAMES)
        lines.append(f"{protocol},{n},avg,{values}")
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


def solve_dcf_command(params: DcfParams, densities, distances, output_path) -> int:
    """Build the collision table and write it as CSV."""
    try:
        table = build_table(densities, distances, params)
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


def _axis(cfg, key, text, option):
    """A table axis given as `option`, read and checked as the config's [dcf] `key`."""
    if text is None:
        return getattr(cfg.dcf, key)
    return KEYS["dcf"][key].read(text, option)


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

    dcf_p = sub.add_parser("solve-dcf", help="precompute the collision table CSV")
    dcf_p.add_argument("-o", "--output", required=True, help="output CSV path")
    dcf_p.add_argument("-c", "--config", help="scenario config file supplying dcf parameters")
    dcf_p.add_argument("--density-axis", help="comma-separated densities per 1e6 m^2")
    dcf_p.add_argument("--distance-axis", help="comma-separated distances in meters")

    args = parser.parse_args(argv)
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
        try:
            densities = _axis(cfg, "table_densities", args.density_axis, "--density-axis")
            distances = _axis(cfg, "table_distances", args.distance_axis, "--distance-axis")
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        return solve_dcf_command(cfg.dcf.params, densities, distances, args.output)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
