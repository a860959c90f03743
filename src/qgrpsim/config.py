"""Scenario configuration: sectioned key-value parsing, validation, defaults.

Every key is declared once, as a dataclass field: in the section classes
below, in `DcfParams` (the keys of [dcf]), `MetricWeights` ([weights], whose
one key is `beta`: the bandwidth weight alpha is 1 - beta) and in `Flow`
(keys of each [flow:<id>]).  Its annotation is the key's type, its default
the key's default, and `params.param` adds the key name where it differs
from the field name and the key's own check.  Key names carry their unit
(`_s`, `_m`, `_j`, `_bps`, `_bits`); comments give the others.  These
declarations are the reference for every key, its unit, default and
check, but for the flow defaults: `Flow` declares one for `source` alone,
and `parse_config` requires `rate_bps` and supplies `packet_bits` 2000,
`start_s` 2.0, `stop_s` the run's duration and `required_bps` the flow's
rate.  Parsing, the unknown-key check and `emit_config` all go through
`KEYS`, which is read from them; rules relating two keys are the explicit
code in `parse_config`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from typing import Callable, NamedTuple

from .dcf import DcfParams
from .params import POSITIVE, at_least, param, rule
from .qgrp import MetricWeights
from .simulator import Flow


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending key path."""


@dataclass(frozen=True)
class TopologyConfig:
    n: int = param(100, check=at_least(2))
    field_width: float = param(1000.0, check=POSITIVE)  # m
    field_height: float = param(1000.0, check=POSITIVE)  # m
    tx_range: float = param(250.0, check=POSITIVE)  # m
    seed: int = 1


@dataclass(frozen=True)
class MacConfig:
    b_no: float = param(2e6, "b_no_bps", POSITIVE)
    retries: int = param(4, check=at_least(0))
    queue_limit: int = param(50, check=at_least(1))  # packets


@dataclass(frozen=True)
class EnergyConfig:
    initial: float = param(40.0, "initial_j", POSITIVE)
    e_elec: float = param(50e-9, "e_elec_j_per_bit", at_least(0))
    e_amp: float = param(100e-12, "e_amp_j_per_bit_m2", at_least(0))


@dataclass(frozen=True)
class HelloConfig:
    """Jitter is a fraction of the interval; expiry_intervals counts intervals."""

    interval: float = param(1.0, "interval_s", POSITIVE)
    jitter: float = param(0.1, check=rule(lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"))
    expiry_intervals: int = param(3, check=at_least(1))
    idle_window: float = param(1.0, "idle_window_s", POSITIVE)

    @property
    def expiry(self) -> float:
        """Age in seconds after which a neighbour's hello is stale."""
        return self.expiry_intervals * self.interval


@dataclass(frozen=True)
class RetryConfig:
    rrep_wait: float = param(0.5, "rrep_wait_s", POSITIVE)
    max_retries: int = param(3, check=at_least(0))
    backoff: float = param(0.5, "backoff_s", POSITIVE)
    buffer_capacity: int = param(64, check=at_least(1))  # packets
    policy: str = param("retry", check=rule(lambda v: v in ("retry", "reduce"),
                                            "must be 'retry' or 'reduce'"))
    reservation_ttl: float = param(10.0, "reservation_ttl_s", POSITIVE)


@dataclass(frozen=True)
class PacketSizes:
    hello: int = param(256, "hello_bits", POSITIVE)
    rreq: int = param(320, "rreq_bits", POSITIVE)
    rrep: int = param(320, "rrep_bits", POSITIVE)
    notify: int = param(192, "notify_bits", POSITIVE)
    data_header: int = param(160, "data_header_bits", POSITIVE)


@dataclass(frozen=True)
class AodvConfig:
    """AODV's own settings; its RREQ and RREP sizes are [pkt]'s, as QGRP's are."""

    active_route_timeout: float = param(3.0, "active_route_timeout_s", POSITIVE)
    ttl: int = param(30, check=at_least(1))  # hops


@dataclass(frozen=True)
class SimConfig:
    duration: float = param(100.0, "duration_s", POSITIVE)
    warm_up: float = param(5.0, "warm_up_s")
    repetitions: int = param(10, check=at_least(1))


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    protocol: str = param("qgrp", "name", rule(lambda v: v in ("qgrp", "aodv"),
                                               "must be 'qgrp' or 'aodv'"), "protocol")
    weights: MetricWeights = field(default_factory=MetricWeights)
    flows: tuple[Flow, ...] = ()
    dcf: DcfParams = field(default_factory=DcfParams)
    mac: MacConfig = field(default_factory=MacConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    hello: HelloConfig = field(default_factory=HelloConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    pkt: PacketSizes = field(default_factory=PacketSizes)
    aodv: AodvConfig = field(default_factory=AodvConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    sizes: tuple[int, ...] = param((), "sizes", rule(lambda v: all(s >= 2 for s in v),
                                                     "every size must be >= 2"), "experiment")


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _items(conv):
    return lambda text: tuple(conv(part) for part in text.split(",") if part.strip())


# The one converter for each annotation a declared field may carry, and what it expects.
_TYPES = {
    "int": (int, "an integer"),
    "int | None": (int, "an integer"),
    "float": (_finite, "a finite number"),
    "str": (str.strip, "a string"),
    "tuple[int, ...]": (_items(int), "a comma-separated list of integers"),
}


def _render(value) -> str:
    """The text `_TYPES` reads back as value."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


class Key(NamedTuple):
    """One declared key: its place in the document and in the config object."""

    section: str
    name: str
    path: tuple[str, ...]  # attributes from ScenarioConfig (from Flow for a flow key)
    type: tuple[Callable, str]  # converter from text, and what it expects
    check: Callable | None

    def read(self, text: str, where: str):
        """The value of `text`, converted and checked; errors are prefixed by `where`."""
        conv, expected = self.type
        try:
            value = conv(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected {expected}, got {text!r}") from exc
        problem = self.check and self.check(value)
        _require(not problem, where, problem)
        return value


def _walk(cls, section=None, prefix=()):
    """The keys declared by cls and the section dataclasses it holds, in document order."""
    for f in fields(cls):
        path = prefix + (f.name,)
        if is_dataclass(f.default_factory):
            yield from _walk(f.default_factory, section or f.name, path)
        elif section or f.metadata.get("section"):
            yield Key(section or f.metadata["section"], f.metadata.get("key") or f.name, path,
                      _TYPES[f.type], f.metadata.get("check"))


# Section -> key name -> Key, in document order.  A flow's id is its section's suffix.
KEYS: dict[str, dict[str, Key]] = {}
for _key in _walk(ScenarioConfig):
    KEYS.setdefault(_key.section, {})[_key.name] = _key
FLOW_KEYS = {key.name: key for key in _walk(Flow, "flow") if key.path != ("flow_id",)}


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _read(section, raw, lookup):
    """Path -> value for the keys one section sets."""
    values = {}
    for name, text in raw.items():
        key = lookup(name)
        _require(key is not None, f"{section}.{name}", "unknown key")
        values[key.path] = key.read(text, f"{section}.{name}")
    return values


def _build(cls, values, prefix=()):
    """An instance of cls holding the values set under prefix; the rest keep their defaults."""
    kwargs = {}
    for f in fields(cls):
        path = prefix + (f.name,)
        if path in values:
            kwargs[f.name] = values[path]
        elif is_dataclass(f.default_factory):
            kwargs[f.name] = _build(f.default_factory, values, path)
    return cls(**kwargs)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a sectioned key-value document into a validated ScenarioConfig.

    Unknown sections or keys are rejected; missing keys take the defaults
    declared with them (see the module docstring).  Validation errors carry
    the offending key path.
    """
    # No header names the empty section, so [DEFAULT] is an ordinary, and unknown, section.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    values = {}
    flow_sections = {}
    for name in cp.sections():
        raw = dict(cp.items(name))
        if name.startswith("flow:"):
            try:
                flow_id = int(name[len("flow:"):])
            except ValueError:
                raise ConfigError(f"{name}: flow section suffix must be an integer")
            _require(flow_id not in flow_sections, name, "duplicate flow id")
            flow_sections[flow_id] = (name, _read(name, raw, FLOW_KEYS.get))
        else:
            _require(name in KEYS, name, "unknown section")
            values.update(_read(name, raw, KEYS[name].get))

    # DcfParams checks a rule across its own keys; report it under the key named.
    try:
        values[("dcf",)] = _build(DcfParams, values, ("dcf",))
    except ValueError as exc:
        raise ConfigError(f"dcf.cw_max: {exc}") from exc
    cfg = _build(ScenarioConfig, values)
    _require(0.0 <= cfg.sim.warm_up < cfg.sim.duration, "sim.warm_up_s",
             "must lie in [0, duration)")

    flows = []
    n_min = min((cfg.topology.n,) + cfg.sizes)
    for flow_id, (name, given) in sorted(flow_sections.items()):
        _require(("rate",) in given, f"{name}.rate_bps", "is required")
        kwargs = {"packet_bits": 2000, "start": 2.0, "stop": cfg.sim.duration,
                  "required_bandwidth": given[("rate",)], "source": None}
        kwargs.update((path[0], value) for path, value in given.items())
        _require(0.0 <= kwargs["start"] < kwargs["stop"], f"{name}.start_s",
                 "must lie in [0, stop)")
        _require(0.0 < kwargs["required_bandwidth"] <= cfg.mac.b_no, f"{name}.required_bps",
                 "must lie in (0, mac.b_no_bps]")
        _require(kwargs["source"] is None or 0 <= kwargs["source"] < n_min, f"{name}.source",
                 f"must lie in [0, {n_min}), the smallest network size")
        flows.append(Flow(flow_id, **kwargs))
    return replace(cfg, flows=tuple(flows))


def _lines(keys, obj):
    """One line per key whose value is set; None and empty lists are left out."""
    return [f"{key.name} = {_render(value)}" for key in keys
            if (value := reduce(getattr, key.path, obj)) is not None and value != ()]


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a config back to its text form; parse(emit(cfg)) == cfg."""
    blocks = [(f"[{section}]", _lines(keys.values(), cfg)) for section, keys in KEYS.items()]
    blocks += [(f"[flow:{flow.flow_id}]", _lines(FLOW_KEYS.values(), flow)) for flow in cfg.flows]
    return "\n\n".join("\n".join([header] + lines) for header, lines in blocks if lines) + "\n"
