"""Per-layer tracing of one simulation cell, from outside the program.

`Tracer` replaces the functions and methods each layer is entered
through with timing wrappers while it is active, and puts the originals
back when it exits.  It keeps one aggregate per layer (call count, total
time, self time) rather than one span per call, because a cell makes
over a million calls.  Self time is the total minus the time spent in
other wrapped layers called from inside.

A layer whose entry point no longer exists under its name is left
unwrapped and reported as None; tracing never fails because the program
was refactored.
"""

from __future__ import annotations

import heapq
import time

from qgrpsim import aodv, link_estimation, metrics, qgrp, simulator
from qgrpsim.actions import Unicast
from qgrpsim.qgrp import Data

Engine = simulator.Engine

# layer -> entry points timed as that layer.
SPANS = {
    "dcf.build_table": [(simulator, "build_table")],
    "simulator.topology": [(simulator, "generate_topology")],
    "simulator.adjacency": [(Engine, "_precompute_adjacency")],
    "simulator.run": [(Engine, "run")],
    "simulator.arrival": [(Engine, "_on_arrival")],
    "simulator.transmit": [(Engine, "_transmit_unicast"), (Engine, "_transmit_broadcast")],
    "simulator.busy_charge": [(Engine, "_charge_busy")],
    "simulator.idle_read": [(Engine, "idle_fraction")],
    "qgrp.hello": [(qgrp.QgrpNode, "_emit_hello"), (qgrp.QgrpNode, "on_hello")],
    "qgrp.refresh": [(qgrp.QgrpNode, "refresh")],
    "link_estimation.refresh_estimates": [(qgrp, "refresh_estimates")],
    "qgrp.forward": [(qgrp.QgrpNode, "forward_data")],
    "qgrp.route": [
        (qgrp.QgrpNode, "handle_rreq"), (qgrp.QgrpNode, "handle_rrep"),
        (qgrp.QgrpNode, "handle_admission_notify"), (qgrp.QgrpNode, "_emit_rreq"),
    ],
    "aodv.on_packet": [(aodv.AodvNode, "on_packet")],
    "metrics.compute": [(metrics, "compute_metrics")],
    "simulator.format_log": [(simulator, "format_log")],
}

# layer -> entry points only counted: they are too cheap to time per call.
COUNTERS = {
    "dcf.lookup": [(simulator, "lookup_p_c"), (link_estimation, "lookup_p_c")],
    # Only the estimator's own evaluations; the engine's link cache makes its own.
    "link_estimation.backoff": [(link_estimation, "mean_backoff_slots")],
}

# Layers whose results the wrapper also inspects; the figure lands in `extra`.
_RESULT_HOOKS = {
    "link_estimation.refresh_estimates": len,
    "qgrp.forward": lambda effects: sum(
        1 for e in effects if isinstance(e, Unicast) and isinstance(e.packet, Data)
    ),
}

# The engine pops its event heap through `simulator.heapq`; counting the
# pops counts dispatched events.
EVENTS = "simulator.events"
# Node-bucket writes of carrier-sense busy accounting, counted on `node.busy`.
BUSY_WRITES = "simulator.busy_writes"


class LayerStats:
    __slots__ = ("count", "total", "self_time", "extra", "depth")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0
        self.depth = 0


class _CountingHeapq:
    """Stands in for the `heapq` module inside the engine and counts pops."""

    def __init__(self):
        self.pops = 0
        self.last_time = None
        self.heappush = heapq.heappush

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.pops += 1
        self.last_time = item[0]
        return item


class _WriteCountingDict(dict):
    def __init__(self, counter: LayerStats, items):
        super().__init__(items)
        self.counter = counter

    def __setitem__(self, key, value):
        self.counter.count += 1
        dict.__setitem__(self, key, value)


class Tracer:
    """Context manager that wraps each layer's entry points while active."""

    def __init__(self, spans=None, counters=None):
        self.spans = SPANS if spans is None else spans
        self.counters = COUNTERS if counters is None else counters
        self.stats: dict[str, LayerStats] = {}
        self.missing: set[str] = set()
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._heapq = None

    # ----- install / restore -----

    def __enter__(self):
        try:
            for name, targets in self.spans.items():
                self._wrap_layer(name, targets, self._span)
            for name, targets in self.counters.items():
                self._wrap_layer(name, targets, self._counter)
            if hasattr(simulator, "heapq"):
                self._heapq = _CountingHeapq()
                self._patch(simulator, "heapq", self._heapq)
            else:
                self.missing.add(EVENTS)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_layer(self, name, targets, make_wrapper):
        if not all(hasattr(owner, attr) for owner, attr in targets):
            self.missing.add(name)
            return
        stats = self.stats.setdefault(name, LayerStats())
        for owner, attr in targets:
            self._patch(owner, attr, make_wrapper(getattr(owner, attr), stats,
                                                  _RESULT_HOOKS.get(name)))

    def instrument_engine(self, engine):
        """Count busy-bucket writes on every node of a constructed engine."""
        nodes = getattr(getattr(engine, "topology", None), "nodes", ())
        if not nodes or not all(isinstance(getattr(n, "busy", None), dict) for n in nodes):
            self.missing.add(BUSY_WRITES)
            return
        counter = self.stats.setdefault(BUSY_WRITES, LayerStats())
        for node in nodes:
            node.busy = _WriteCountingDict(counter, node.busy)

    # ----- wrappers -----

    def _span(self, fn, stats: LayerStats, hook):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.depth -= 1
                stats.count += 1
                stats.self_time += elapsed - stack.pop()
                if stats.depth == 0:
                    stats.total += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                stats.extra += hook(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, stats: LayerStats, hook):
        def wrapper(*args, **kwargs):
            stats.count += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ----- readings -----

    def layer(self, name: str) -> LayerStats | None:
        if name in self.missing:
            return None
        return self.stats.get(name, LayerStats())

    def events(self, horizon: float) -> int | None:
        """Events the run loop dispatched; it pops, and drops, one event past the horizon."""
        if self._heapq is None:
            return None
        past = self._heapq.last_time is not None and self._heapq.last_time > horizon
        return self._heapq.pops - int(past)


def log_counts(event_log, protocol: str) -> dict[str, int]:
    """Exact per-layer counts read off the event log."""
    c = dict.fromkeys((
        "tx_unicast", "tx_broadcast", "mac_attempts", "rx", "hello_tx", "hello_rx",
        "qgrp_rreq_rx", "aodv_rreq_rx", "route_invalidate",
    ), 0)
    for row in event_log:
        kind = row[2]
        if kind == "tx":
            # (time, node, 'tx', pkt_kind, bits, to, attempts, joules, airtime, flow, seq)
            c["tx_broadcast" if row[5] == -1 else "tx_unicast"] += 1
            c["mac_attempts"] += row[6]
            if row[3] == "hello":
                c["hello_tx"] += 1
        elif kind == "rx":
            # (time, node, 'rx', pkt_kind, bits, from, joules)
            c["rx"] += 1
            if row[3] == "hello":
                c["hello_rx"] += 1
            elif row[3] == "rreq":
                c["qgrp_rreq_rx"] += 1
            elif row[3] == "aodvrreq":
                c["aodv_rreq_rx"] += 1
        elif kind == "route_invalidate":
            c["route_invalidate"] += 1
    if protocol != "qgrp":
        c["route_invalidate"] = 0  # both protocols log this kind; only QGRP's count here
    return c


def _self(tracer, name):
    s = tracer.layer(name)
    return None if s is None else s.self_time


def _count(tracer, name):
    s = tracer.layer(name)
    return None if s is None else s.count


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: dict, cell: dict) -> dict[str, float | None]:
    """Per-layer figures of one traced cell.  Every `_s` figure is self time."""
    refresh, rebuild = tracer.layer("qgrp.refresh"), tracer.layer(
        "link_estimation.refresh_estimates")
    forward = tracer.layer("qgrp.forward")
    busy_writes = tracer.layer(BUSY_WRITES)
    compute_s = _self(tracer, "metrics.compute")
    return {
        "dcf.build_table_s": _self(tracer, "dcf.build_table"),
        "simulator.topology_s": _self(tracer, "simulator.topology"),
        "simulator.adjacency_s": _self(tracer, "simulator.adjacency"),
        "dcf.lookups": _count(tracer, "dcf.lookup"),
        "link_estimation.backoff_evals": _count(tracer, "link_estimation.backoff"),
        "link_estimation.estimates_built": None if rebuild is None else rebuild.extra,
        "link_estimation.refresh_estimates_s": _self(tracer, "link_estimation.refresh_estimates"),
        "qgrp.refresh_calls": None if refresh is None else refresh.count,
        "qgrp.refresh_rebuilds": None if rebuild is None else rebuild.count,
        # Share of refresh calls answered from the cached estimates; 0 with no calls.
        "qgrp.refresh_hit_ratio": (
            None if refresh is None or rebuild is None
            else _ratio(refresh.count - rebuild.count, refresh.count)
        ),
        "qgrp.refresh_s": _self(tracer, "qgrp.refresh"),
        "qgrp.forward_s": _self(tracer, "qgrp.forward"),
        "qgrp.data_forwarded": None if forward is None else forward.extra,
        "qgrp.route_s": _self(tracer, "qgrp.route"),
        "qgrp.rreq_handled": counts["qgrp_rreq_rx"],
        "qgrp.route_invalidations": counts["route_invalidate"],
        "qgrp.hello_tx": counts["hello_tx"],
        "qgrp.hello_rx": counts["hello_rx"],
        "qgrp.hello_s": _self(tracer, "qgrp.hello"),
        "simulator.arrivals": _count(tracer, "simulator.arrival"),
        "simulator.arrival_s": _self(tracer, "simulator.arrival"),
        "simulator.busy_charge_s": _self(tracer, "simulator.busy_charge"),
        "simulator.busy_charge_updates": None if busy_writes is None else busy_writes.count,
        "simulator.idle_reads": _count(tracer, "simulator.idle_read"),
        "simulator.idle_read_s": _self(tracer, "simulator.idle_read"),
        "simulator.tx_unicast": counts["tx_unicast"],
        "simulator.tx_broadcast": counts["tx_broadcast"],
        "simulator.transmit_s": _self(tracer, "simulator.transmit"),
        "simulator.mac_attempts": counts["mac_attempts"],
        "simulator.mac_delivered": counts["rx"],
        "simulator.events": cell["events"],
        "simulator.dispatch_self_s": _self(tracer, "simulator.run"),
        "simulator.log_rows": cell["log_rows"],
        "simulator.format_log_s": _self(tracer, "simulator.format_log"),
        "simulator.log_bytes": cell["log_bytes"],
        "aodv.on_packet_s": _self(tracer, "aodv.on_packet"),
        "aodv.rreq_handled": counts["aodv_rreq_rx"],
        "metrics.compute_s": compute_s,
        "metrics.rows_per_s": _ratio(cell["log_rows"], compute_s),
    }


# ROADMAP aim-1 layers as groups of traced layers, for the share table.
LAYER_GROUPS = {
    "setup (topology, adjacency, DCF table)": [
        "simulator.topology", "simulator.adjacency", "dcf.build_table"],
    "link-estimate refresh": ["qgrp.refresh", "link_estimation.refresh_estimates"],
    "hello plane": ["qgrp.hello"],
    "carrier-sense busy accounting": ["simulator.busy_charge", "simulator.idle_read"],
    "channel transmit": ["simulator.transmit"],
    "route control": ["qgrp.route"],
    "data plane": ["qgrp.forward"],
    "aodv handlers": ["aodv.on_packet"],
    "arrival": ["simulator.arrival"],
    "event dispatch": ["simulator.run"],
    "metric fold": ["metrics.compute"],
    "log serialisation": ["simulator.format_log"],
}


def group_self_times(tracer: Tracer) -> dict[str, float]:
    out = {}
    for group, names in LAYER_GROUPS.items():
        out[group] = sum(s.self_time for s in map(tracer.layer, names) if s is not None)
    return out
