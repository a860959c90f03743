"""Performance metrics computed from event logs.

All six figures are pure functions of a run's event log, so recomputing
them from a persisted log reproduces the live values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .eventlog import RxRun, log_entries


@dataclass(frozen=True)
class RunMetrics:
    """The six per-run performance figures.

    throughput: unique payload bits delivered to the sink inside the
    measurement window, divided by the window length.
    pdr: unique data packets at the sink over data packets originated;
    None when nothing was originated.
    mean_delay: mean origin-to-sink latency over delivered packets.
    mean_residual_energy: mean final residual energy across all sensors.
    energy_efficiency: joules dissipated by source and forwarder sensors
    per unique delivered packet; None when nothing was delivered.
    std_energy_deviation: population standard deviation of final residual
    energies across all sensors.
    """

    throughput: float
    pdr: float | None
    mean_delay: float | None
    mean_residual_energy: float
    energy_efficiency: float | None
    std_energy_deviation: float


METRIC_NAMES = tuple(f.name for f in fields(RunMetrics))


def left_sum(values) -> float:
    """Add values left to right, starting from int 0, as sum() did before Python 3.12.

    From 3.12 on, sum() adds floats with compensation, so its last bits
    depend on the interpreter; this fold gives the same bits on every one.
    Like sum(), it gives int 0 for no values.
    """
    total = 0
    for v in values:
        total += v
    return total


def compute_metrics(event_log, cfg) -> RunMetrics:
    """Fold one event log, an `EventLog` or a plain list of rows, into the six figures.

    A run of rx rows adds its joules to each receiver in order, as its rows would.
    """
    initial: dict[int, float] = {}
    dissipated: dict[int, float] = {}
    sources: set[int] = set()
    data_transmitters: set[int] = set()
    originated = 0
    delivered: dict[tuple[int, int], tuple[float, float, int]] = {}

    for row in log_entries(event_log):
        if type(row) is RxRun:
            joules = row.joules
            for node in row.receivers:
                dissipated[node] = dissipated.get(node, 0.0) + joules
            continue
        kind = row[2]
        if kind == "tx":
            node = row[1]
            dissipated[node] = dissipated.get(node, 0.0) + row[7]
            if row[3] == "data":
                data_transmitters.add(node)
        elif kind == "rx":
            node = row[1]
            dissipated[node] = dissipated.get(node, 0.0) + row[6]
        elif kind == "origin":
            originated += 1
        elif kind == "deliver":
            key = (row[3], row[4])
            if key not in delivered:
                # row: (time, node, 'deliver', flow, seq, origin_ts, payload_bits)
                delivered[key] = (row[0], row[5], row[6])
        elif kind == "node":
            initial[row[1]] = row[5]
        elif kind == "flow":
            sources.add(row[1])

    warm_up = cfg.sim.warm_up
    duration = cfg.sim.duration
    window = duration - warm_up
    window_bits = sum(bits for t, _, bits in delivered.values() if warm_up <= t <= duration)
    throughput = window_bits / window if window > 0 else 0.0

    pdr = len(delivered) / originated if originated else None
    delays = [t - origin_ts for t, origin_ts, _ in delivered.values()]
    mean_delay = left_sum(delays) / len(delays) if delays else None

    residuals = [initial[i] - dissipated.get(i, 0.0) for i in sorted(initial)]
    mean_residual = left_sum(residuals) / len(residuals)
    variance = left_sum((r - mean_residual) ** 2 for r in residuals) / len(residuals)
    std_energy = math.sqrt(variance)

    active = sources | data_transmitters
    spent = left_sum(dissipated.get(i, 0.0) for i in sorted(active))
    efficiency = spent / len(delivered) if delivered else None

    return RunMetrics(throughput, pdr, mean_delay, mean_residual, efficiency, std_energy)


@dataclass(frozen=True)
class AggregateMetrics:
    """Seed-averaged metrics with per-metric standard error.

    Undefined per-run values are excluded from the average; their counts
    are reported in `undefined`.
    """

    n_runs: int
    mean: dict
    stderr: dict
    undefined: dict


def aggregate(runs: list[RunMetrics]) -> AggregateMetrics:
    """Arithmetic mean and standard error per metric over seeded repetitions."""
    if not runs:
        raise ValueError("need at least one run to aggregate")
    mean: dict[str, float | None] = {}
    stderr: dict[str, float | None] = {}
    undefined: dict[str, int] = {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in runs]
        defined = [v for v in values if v is not None]
        undefined[name] = len(values) - len(defined)
        if not defined:
            mean[name] = None
            stderr[name] = None
            continue
        m = left_sum(defined) / len(defined)
        mean[name] = m
        if len(defined) > 1:
            var = left_sum((v - m) ** 2 for v in defined) / (len(defined) - 1)
            stderr[name] = math.sqrt(var / len(defined))
        else:
            stderr[name] = 0.0
    return AggregateMetrics(len(runs), mean, stderr, undefined)
