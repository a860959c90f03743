"""Packet-level simulator and protocol library for QGRP.

QGRP is a QoS/energy-aware geographic routing protocol for multimedia
wireless sensor networks.  The package bundles its analytical 802.11 DCF
collision/bandwidth model, the protocol state machine, a simplified AODV
baseline, a deterministic discrete-event engine, and the experiment
tooling that compares the two protocols over seeded topologies.
"""

from .config import ConfigError, ScenarioConfig, emit_config, parse_config
from .dcf import (
    CollisionTable,
    DcfParams,
    FixedPointSolution,
    RegionCounts,
    attempt_probability,
    build_table,
    collision_probability,
    fit_carrier_sense_radius,
    lookup_p_c,
    reference_table,
    region_counts,
    solve_fixed_point,
)
from .geometry import GeoContext, Position, deviation_angle, distance, is_forward_progress
from .link_estimation import estimate_bandwidth, refresh_estimates
from .metrics import AggregateMetrics, RunMetrics, aggregate, compute_metrics
from .qgrp import MetricWeights, NodeEnergy, QgrpNode, RouteEntry
from .simulator import Engine, Flow, Topology, generate_topology, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "CollisionTable",
    "ConfigError",
    "DcfParams",
    "Engine",
    "FixedPointSolution",
    "Flow",
    "GeoContext",
    "MetricWeights",
    "NodeEnergy",
    "Position",
    "QgrpNode",
    "RegionCounts",
    "RouteEntry",
    "RunMetrics",
    "ScenarioConfig",
    "Topology",
    "aggregate",
    "attempt_probability",
    "build_table",
    "collision_probability",
    "compute_metrics",
    "deviation_angle",
    "distance",
    "emit_config",
    "estimate_bandwidth",
    "fit_carrier_sense_radius",
    "generate_topology",
    "is_forward_progress",
    "lookup_p_c",
    "parse_config",
    "reference_table",
    "refresh_estimates",
    "region_counts",
    "run_scenario",
    "solve_fixed_point",
]
