"""The benchmark's workloads and the scenario each simulation cell runs.

A cell is one protocol at one network size and one engine seed.  A
workload runs a panel of cell seeds derived from the workload seed, so
one invocation averages over several topologies instead of timing a
single one whose route lengths happen to be short or long.
"""

from __future__ import annotations

from dataclasses import dataclass

# Cell seeds of one panel are this far apart, so the panels of workload
# seeds 1, 2, 3, ... share no topology and the first cell seed of every
# panel equals the workload seed.
PANEL_STRIDE = 1000


@dataclass(frozen=True)
class CellSpec:
    """Everything a fresh cell process needs to run one cell."""

    protocol: str
    n: int
    flows: int
    rate_bps: float
    duration_s: float
    seed: int
    persist_log: bool = False
    trace: bool = False
    round_trip: bool = False


@dataclass(frozen=True)
class Workload:
    protocol: str
    n: int
    flows: int
    rate_bps: float
    duration_s: float
    persist_log: bool
    panel: int
    round_seconds: float  # nominal host seconds of one untraced round over the panel
    round_trip: bool
    why: str

    def cell_seeds(self, seed: int) -> list[int]:
        return [seed + PANEL_STRIDE * j for j in range(self.panel)]

    def spec(self, seed: int, **overrides) -> CellSpec:
        return CellSpec(self.protocol, self.n, self.flows, self.rate_bps, self.duration_s,
                        seed, self.persist_log, **overrides)


WORKLOADS = {
    "qgrp_n400_light": Workload(
        "qgrp", 400, 3, 20_000.0, 8.0, persist_log=True, panel=3, round_seconds=7.0,
        round_trip=False,
        why="QGRP n=400, 3 x 20 kb/s, log persisted: hello plane, carrier-sense charging "
            "over ~300-node disks, log rows and memory",
    ),
    "qgrp_n100_heavy": Workload(
        "qgrp", 100, 8, 40_000.0, 10.0, persist_log=False, panel=24, round_seconds=30.0,
        round_trip=True,
        why="QGRP n=100, 8 x 40 kb/s: data plane and link-estimate refresh, route "
            "control; routes break on some seeds",
    ),
    "aodv_n400_light": Workload(
        "aodv", 400, 3, 20_000.0, 40.0, persist_log=False, panel=6, round_seconds=7.0,
        round_trip=False,
        why="AODV on the qgrp_n400_light topology and traffic: shared engine and "
            "channel without any QGRP layer",
    ),
}


def scenario_config(spec: CellSpec):
    """Default config on a 1000 x 1000 m field with the spec's size, protocol and flows.

    Flow sources are left unset, so the engine picks them from the cell seed.
    """
    from qgrpsim.config import parse_config

    lines = [
        "[topology]", f"n = {spec.n}",
        "[protocol]", f"name = {spec.protocol}",
        "[sim]", f"duration_s = {spec.duration_s!r}",
    ]
    for flow_id in range(spec.flows):
        lines += [f"[flow:{flow_id}]", f"rate_bps = {spec.rate_bps!r}"]
    return parse_config("\n".join(lines) + "\n")
