"""Scenario configuration: sectioned key-value parsing, validation, defaults."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .dcf import DcfParams
from .qgrp import MetricWeights
from .simulator import Flow


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending key path."""


@dataclass(frozen=True)
class TopologyConfig:
    n: int = 100
    field: tuple[float, float] = (1000.0, 1000.0)
    tx_range: float = 250.0
    seed: int = 1


@dataclass(frozen=True)
class DcfConfig:
    params: DcfParams = field(default_factory=DcfParams)
    reduced: bool = True
    table_densities: tuple[float, ...] = (90.0, 100.0, 110.0, 120.0)
    table_distances: tuple[float, ...] = (100.0, 150.0, 200.0, 250.0)


@dataclass(frozen=True)
class MacConfig:
    b_no: float = 2e6
    retries: int = 4
    queue_limit: int = 50


@dataclass(frozen=True)
class EnergyConfig:
    initial: float = 40.0
    e_elec: float = 50e-9
    e_amp: float = 100e-12


@dataclass(frozen=True)
class HelloConfig:
    interval: float = 1.0
    jitter: float = 0.1
    expiry_intervals: int = 3
    idle_window: float = 1.0


@dataclass(frozen=True)
class RetryConfig:
    rrep_wait: float = 0.5
    max_retries: int = 3
    backoff: float = 0.5
    buffer_capacity: int = 64
    policy: str = "retry"
    reservation_ttl: float = 10.0


@dataclass(frozen=True)
class PacketSizes:
    hello: int = 256
    rreq: int = 320
    rrep: int = 320
    notify: int = 192
    data_header: int = 160


@dataclass(frozen=True)
class AodvConfig:
    rreq_bits: int = 320
    rrep_bits: int = 320
    active_route_timeout: float = 3.0
    ttl: int = 30


@dataclass(frozen=True)
class SimConfig:
    duration: float = 100.0
    warm_up: float = 5.0
    repetitions: int = 10


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    protocol: str = "qgrp"
    weights: MetricWeights = field(default_factory=MetricWeights)
    flows: tuple[Flow, ...] = ()
    dcf: DcfConfig = field(default_factory=DcfConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    hello: HelloConfig = field(default_factory=HelloConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    pkt: PacketSizes = field(default_factory=PacketSizes)
    aodv: AodvConfig = field(default_factory=AodvConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    sizes: tuple[int, ...] = ()


_KNOWN_KEYS = {
    "topology": {"n", "field_width", "field_height", "tx_range", "seed"},
    "protocol": {"name"},
    "weights": {"alpha", "beta"},
    "dcf": {
        "cw_min", "cw_max", "payload_duration_s", "virtual_slot_s",
        "carrier_sense_radius_m", "interference_radius_m", "reduced",
        "table_densities", "table_distances",
    },
    "mac": {"b_no_bps", "retries", "queue_limit"},
    "energy": {"initial_j", "e_elec_j_per_bit", "e_amp_j_per_bit_m2"},
    "hello": {"interval_s", "jitter", "expiry_intervals", "idle_window_s"},
    "retry": {
        "rrep_wait_s", "max_retries", "backoff_s", "buffer_capacity", "policy",
        "reservation_ttl_s",
    },
    "pkt": {"hello_bits", "rreq_bits", "rrep_bits", "notify_bits", "data_header_bits"},
    "aodv": {"rreq_bits", "rrep_bits", "active_route_timeout_s", "ttl"},
    "sim": {"duration_s", "warm_up_s", "repetitions"},
    "experiment": {"sizes"},
}
_FLOW_KEYS = {"rate_bps", "packet_bits", "start_s", "stop_s", "required_bps", "source"}


class _Section:
    """Typed accessors for one config section, with key-path errors."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = raw

    def _get(self, key, default, conv, desc):
        text = self.raw.get(key)
        if text is None:
            return default
        try:
            return conv(text)
        except ValueError as exc:
            raise ConfigError(f"{self.name}.{key}: expected {desc}, got {text!r}") from exc

    def get_float(self, key, default):
        return self._get(key, default, float, "a number")

    def get_int(self, key, default):
        return self._get(key, default, int, "an integer")

    def get_bool(self, key, default):
        def conv(text):
            lowered = text.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(text)

        return self._get(key, default, conv, "a boolean")

    def get_str(self, key, default):
        return self._get(key, default, str.strip, "a string")

    def get_float_list(self, key, default):
        def conv(text):
            return tuple(float(part) for part in text.split(",") if part.strip())

        return self._get(key, default, conv, "a comma-separated list of numbers")

    def get_int_list(self, key, default):
        def conv(text):
            return tuple(int(part) for part in text.split(",") if part.strip())

        return self._get(key, default, conv, "a comma-separated list of integers")


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse a sectioned key-value document into a validated ScenarioConfig.

    Unknown sections or keys are rejected; missing keys take documented
    defaults.  Validation errors carry the offending key path.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    sections: dict[str, _Section] = {}
    flow_sections: list[tuple[int, _Section]] = []
    for name in cp.sections():
        raw = dict(cp.items(name))
        if name.startswith("flow:"):
            suffix = name[len("flow:"):]
            try:
                flow_id = int(suffix)
            except ValueError:
                raise ConfigError(f"{name}: flow section suffix must be an integer")
            for key in raw:
                if key not in _FLOW_KEYS:
                    raise ConfigError(f"{name}.{key}: unknown key")
            flow_sections.append((flow_id, _Section(name, raw)))
            continue
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"{name}: unknown section")
        for key in raw:
            if key not in _KNOWN_KEYS[name]:
                raise ConfigError(f"{name}.{key}: unknown key")
        sections[name] = _Section(name, raw)

    def section(name):
        return sections.get(name, _Section(name, {}))

    topo_sec = section("topology")
    topology = TopologyConfig(
        n=topo_sec.get_int("n", 100),
        field=(topo_sec.get_float("field_width", 1000.0), topo_sec.get_float("field_height", 1000.0)),
        tx_range=topo_sec.get_float("tx_range", 250.0),
        seed=topo_sec.get_int("seed", 1),
    )
    _require(topology.n >= 2, "topology.n", "must be >= 2")
    _require(topology.field[0] > 0 and topology.field[1] > 0, "topology.field_width", "must be positive")
    _require(topology.tx_range > 0, "topology.tx_range", "must be positive")

    protocol = section("protocol").get_str("name", "qgrp")
    _require(protocol in ("qgrp", "aodv"), "protocol.name", "must be 'qgrp' or 'aodv'")

    weights_sec = section("weights")
    alpha = weights_sec.get_float("alpha", None)
    beta = weights_sec.get_float("beta", None)
    if alpha is None and beta is None:
        alpha, beta = 0.7, 0.3
    elif beta is None:
        beta = 1.0 - alpha
    elif alpha is None:
        alpha = 1.0 - beta
    _require(0.0 <= alpha <= 1.0, "weights.alpha", "must lie in [0, 1]")
    _require(0.0 <= beta <= 1.0, "weights.beta", "must lie in [0, 1]")
    try:
        weights = MetricWeights(alpha, beta)
    except ValueError as exc:
        raise ConfigError(f"weights.beta: {exc}") from exc

    dcf_sec = section("dcf")
    try:
        params = DcfParams(
            cw_min=dcf_sec.get_int("cw_min", 32),
            cw_max=dcf_sec.get_int("cw_max", 1024),
            payload_duration=dcf_sec.get_float("payload_duration_s", 4e-3),
            virtual_slot=dcf_sec.get_float("virtual_slot_s", 50e-6),
            carrier_sense_radius=dcf_sec.get_float("carrier_sense_radius_m", 550.0),
            interference_radius=dcf_sec.get_float("interference_radius_m", 250.0),
        )
    except ValueError as exc:
        raise ConfigError(f"dcf: {exc}") from exc
    densities = dcf_sec.get_float_list("table_densities", (90.0, 100.0, 110.0, 120.0))
    distances = dcf_sec.get_float_list("table_distances", (100.0, 150.0, 200.0, 250.0))
    _require(len(densities) >= 1, "dcf.table_densities", "must be non-empty")
    _require(len(distances) >= 1, "dcf.table_distances", "must be non-empty")
    _require(all(b > a for a, b in zip(densities, densities[1:])), "dcf.table_densities",
             "must be strictly increasing")
    _require(all(b > a for a, b in zip(distances, distances[1:])), "dcf.table_distances",
             "must be strictly increasing")
    dcf = DcfConfig(params, dcf_sec.get_bool("reduced", True), densities, distances)

    mac_sec = section("mac")
    mac = MacConfig(
        b_no=mac_sec.get_float("b_no_bps", 2e6),
        retries=mac_sec.get_int("retries", 4),
        queue_limit=mac_sec.get_int("queue_limit", 50),
    )
    _require(mac.b_no > 0, "mac.b_no_bps", "must be positive")
    _require(mac.retries >= 0, "mac.retries", "must be >= 0")
    _require(mac.queue_limit >= 1, "mac.queue_limit", "must be >= 1")

    energy_sec = section("energy")
    energy = EnergyConfig(
        initial=energy_sec.get_float("initial_j", 40.0),
        e_elec=energy_sec.get_float("e_elec_j_per_bit", 50e-9),
        e_amp=energy_sec.get_float("e_amp_j_per_bit_m2", 100e-12),
    )
    _require(energy.initial > 0, "energy.initial_j", "must be positive")
    _require(energy.e_elec >= 0 and energy.e_amp >= 0, "energy.e_elec_j_per_bit", "must be >= 0")

    hello_sec = section("hello")
    hello = HelloConfig(
        interval=hello_sec.get_float("interval_s", 1.0),
        jitter=hello_sec.get_float("jitter", 0.1),
        expiry_intervals=hello_sec.get_int("expiry_intervals", 3),
        idle_window=hello_sec.get_float("idle_window_s", 1.0),
    )
    _require(hello.interval > 0, "hello.interval_s", "must be positive")
    _require(0.0 <= hello.jitter < 1.0, "hello.jitter", "must lie in [0, 1)")
    _require(hello.expiry_intervals >= 1, "hello.expiry_intervals", "must be >= 1")
    _require(hello.idle_window > 0, "hello.idle_window_s", "must be positive")

    retry_sec = section("retry")
    retry = RetryConfig(
        rrep_wait=retry_sec.get_float("rrep_wait_s", 0.5),
        max_retries=retry_sec.get_int("max_retries", 3),
        backoff=retry_sec.get_float("backoff_s", 0.5),
        buffer_capacity=retry_sec.get_int("buffer_capacity", 64),
        policy=retry_sec.get_str("policy", "retry"),
        reservation_ttl=retry_sec.get_float("reservation_ttl_s", 10.0),
    )
    _require(retry.rrep_wait > 0, "retry.rrep_wait_s", "must be positive")
    _require(retry.max_retries >= 0, "retry.max_retries", "must be >= 0")
    _require(retry.backoff > 0, "retry.backoff_s", "must be positive")
    _require(retry.buffer_capacity >= 1, "retry.buffer_capacity", "must be >= 1")
    _require(retry.policy in ("retry", "reduce"), "retry.policy", "must be 'retry' or 'reduce'")
    _require(retry.reservation_ttl > 0, "retry.reservation_ttl_s", "must be positive")

    pkt_sec = section("pkt")
    pkt = PacketSizes(
        hello=pkt_sec.get_int("hello_bits", 256),
        rreq=pkt_sec.get_int("rreq_bits", 320),
        rrep=pkt_sec.get_int("rrep_bits", 320),
        notify=pkt_sec.get_int("notify_bits", 192),
        data_header=pkt_sec.get_int("data_header_bits", 160),
    )
    for name in ("hello", "rreq", "rrep", "notify", "data_header"):
        _require(getattr(pkt, name) > 0, f"pkt.{name}_bits", "must be positive")

    aodv_sec = section("aodv")
    aodv = AodvConfig(
        rreq_bits=aodv_sec.get_int("rreq_bits", 320),
        rrep_bits=aodv_sec.get_int("rrep_bits", 320),
        active_route_timeout=aodv_sec.get_float("active_route_timeout_s", 3.0),
        ttl=aodv_sec.get_int("ttl", 30),
    )
    _require(aodv.rreq_bits > 0 and aodv.rrep_bits > 0, "aodv.rreq_bits", "must be positive")
    _require(aodv.active_route_timeout > 0, "aodv.active_route_timeout_s", "must be positive")
    _require(aodv.ttl >= 1, "aodv.ttl", "must be >= 1")

    sim_sec = section("sim")
    sim = SimConfig(
        duration=sim_sec.get_float("duration_s", 100.0),
        warm_up=sim_sec.get_float("warm_up_s", 5.0),
        repetitions=sim_sec.get_int("repetitions", 10),
    )
    _require(sim.duration > 0, "sim.duration_s", "must be positive")
    _require(0.0 <= sim.warm_up < sim.duration, "sim.warm_up_s", "must lie in [0, duration)")
    _require(sim.repetitions >= 1, "sim.repetitions", "must be >= 1")

    sizes = section("experiment").get_int_list("sizes", ())
    for size in sizes:
        _require(size >= 2, "experiment.sizes", "every size must be >= 2")

    flows = []
    for flow_id, sec in sorted(flow_sections, key=lambda item: item[0]):
        rate = sec.get_float("rate_bps", None)
        _require(rate is not None, f"{sec.name}.rate_bps", "is required")
        _require(rate > 0, f"{sec.name}.rate_bps", "must be positive")
        packet_bits = sec.get_int("packet_bits", 2000)
        _require(packet_bits > 0, f"{sec.name}.packet_bits", "must be positive")
        start = sec.get_float("start_s", 2.0)
        stop = sec.get_float("stop_s", sim.duration)
        _require(0.0 <= start < stop, f"{sec.name}.start_s", "must lie in [0, stop)")
        required = sec.get_float("required_bps", rate)
        _require(0.0 < required <= mac.b_no, f"{sec.name}.required_bps",
                 "must lie in (0, mac.b_no_bps]")
        source = sec.get_int("source", None)
        flows.append(Flow(flow_id, rate, packet_bits, start, stop, required, source))
    _require(len({f.flow_id for f in flows}) == len(flows), "flow", "duplicate flow ids")

    return ScenarioConfig(
        topology, protocol, weights, tuple(flows), dcf, mac, energy, hello, retry, pkt,
        aodv, sim, sizes,
    )


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a config back to its text form; parse(emit(cfg)) == cfg."""
    lines = [
        "[topology]",
        f"n = {cfg.topology.n}",
        f"field_width = {cfg.topology.field[0]!r}",
        f"field_height = {cfg.topology.field[1]!r}",
        f"tx_range = {cfg.topology.tx_range!r}",
        f"seed = {cfg.topology.seed}",
        "",
        "[protocol]",
        f"name = {cfg.protocol}",
        "",
        "[weights]",
        f"alpha = {cfg.weights.alpha!r}",
        f"beta = {cfg.weights.beta!r}",
        "",
        "[dcf]",
        f"cw_min = {cfg.dcf.params.cw_min}",
        f"cw_max = {cfg.dcf.params.cw_max}",
        f"payload_duration_s = {cfg.dcf.params.payload_duration!r}",
        f"virtual_slot_s = {cfg.dcf.params.virtual_slot!r}",
        f"carrier_sense_radius_m = {cfg.dcf.params.carrier_sense_radius!r}",
        f"interference_radius_m = {cfg.dcf.params.interference_radius!r}",
        f"reduced = {str(cfg.dcf.reduced).lower()}",
        "table_densities = " + ",".join(repr(v) for v in cfg.dcf.table_densities),
        "table_distances = " + ",".join(repr(v) for v in cfg.dcf.table_distances),
        "",
        "[mac]",
        f"b_no_bps = {cfg.mac.b_no!r}",
        f"retries = {cfg.mac.retries}",
        f"queue_limit = {cfg.mac.queue_limit}",
        "",
        "[energy]",
        f"initial_j = {cfg.energy.initial!r}",
        f"e_elec_j_per_bit = {cfg.energy.e_elec!r}",
        f"e_amp_j_per_bit_m2 = {cfg.energy.e_amp!r}",
        "",
        "[hello]",
        f"interval_s = {cfg.hello.interval!r}",
        f"jitter = {cfg.hello.jitter!r}",
        f"expiry_intervals = {cfg.hello.expiry_intervals}",
        f"idle_window_s = {cfg.hello.idle_window!r}",
        "",
        "[retry]",
        f"rrep_wait_s = {cfg.retry.rrep_wait!r}",
        f"max_retries = {cfg.retry.max_retries}",
        f"backoff_s = {cfg.retry.backoff!r}",
        f"buffer_capacity = {cfg.retry.buffer_capacity}",
        f"policy = {cfg.retry.policy}",
        f"reservation_ttl_s = {cfg.retry.reservation_ttl!r}",
        "",
        "[pkt]",
        f"hello_bits = {cfg.pkt.hello}",
        f"rreq_bits = {cfg.pkt.rreq}",
        f"rrep_bits = {cfg.pkt.rrep}",
        f"notify_bits = {cfg.pkt.notify}",
        f"data_header_bits = {cfg.pkt.data_header}",
        "",
        "[aodv]",
        f"rreq_bits = {cfg.aodv.rreq_bits}",
        f"rrep_bits = {cfg.aodv.rrep_bits}",
        f"active_route_timeout_s = {cfg.aodv.active_route_timeout!r}",
        f"ttl = {cfg.aodv.ttl}",
        "",
        "[sim]",
        f"duration_s = {cfg.sim.duration!r}",
        f"warm_up_s = {cfg.sim.warm_up!r}",
        f"repetitions = {cfg.sim.repetitions}",
    ]
    if cfg.sizes:
        lines += ["", "[experiment]", "sizes = " + ",".join(str(s) for s in cfg.sizes)]
    for flow in cfg.flows:
        lines += [
            "",
            f"[flow:{flow.flow_id}]",
            f"rate_bps = {flow.rate!r}",
            f"packet_bits = {flow.packet_bits}",
            f"start_s = {flow.start!r}",
            f"stop_s = {flow.stop!r}",
            f"required_bps = {flow.required_bandwidth!r}",
        ]
        if flow.source is not None:
            lines.append(f"source = {flow.source}")
    return "\n".join(lines) + "\n"
