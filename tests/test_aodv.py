import json
import os
import subprocess
import sys
import textwrap
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest

import qgrpsim
from qgrpsim.actions import Broadcast, Data, StartTimer, Unicast
from qgrpsim.aodv import AodvNode, AodvRrep, AodvRreq
from qgrpsim.config import parse_config
from qgrpsim.geometry import Position, distance
from qgrpsim.simulator import Engine
from conftest import constant_table

from test_qgrp import StubEnv


def line_env():
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0)}
    return StubEnv(positions, sink_id=2)


def timer_payload(effects):
    """Payload of the one discovery timeout among effects."""
    (timer,) = [e for e in effects if isinstance(e, StartTimer)]
    return timer.payload


def test_line_discovery_via_middle_node():
    env = line_env()
    a, b, c = (AodvNode(i, env) for i in range(3))
    assert a.start_flow(5, 1e5, 1.0) == []  # discovery waits for the first packet
    effects = a.on_data_emit(5, 2000, 0, 1.0)
    rreq = next(e.packet for e in effects if isinstance(e, Broadcast))
    assert rreq.hop_count == 0

    fwd = b._handle_rreq(rreq, 0, 1.001)
    assert b.routes[0].next_hop == 0 and b.routes[0].hop_count == 1
    relayed = next(e.packet for e in fwd if isinstance(e, Broadcast))
    assert relayed.hop_count == 1

    reply = c._handle_rreq(relayed, 1, 1.002)
    rrep = next(e.packet for e in reply if isinstance(e, Unicast))
    assert isinstance(rrep, AodvRrep) and rrep.hop_count == 0
    assert c.routes[0].hop_count == 2

    back = b._handle_rrep(rrep, 2, 1.003)
    assert b.routes[2].next_hop == 2 and b.routes[2].hop_count == 1
    assert back[0].to == 0

    flush = a._handle_rrep(back[0].packet, 1, 1.004)
    assert a.routes[2].next_hop == 1 and a.routes[2].hop_count == 2
    sent = [e for e in flush if isinstance(e, Unicast) and isinstance(e.packet, Data)]
    assert len(sent) == 1 and sent[0].to == 1


def test_control_packets_take_the_pkt_sizes():
    env = line_env()
    env.pkt = replace(env.pkt, rreq=400, rrep=480)
    a, b, c = (AodvNode(i, env) for i in range(3))
    a.start_flow(5, 1e5, 1.0)
    (rreq,) = [e for e in a.on_data_emit(5, 2000, 0, 1.0) if isinstance(e, Broadcast)]
    (relayed,) = [e for e in b._handle_rreq(rreq.packet, 0, 1.001) if isinstance(e, Broadcast)]
    (rrep,) = c._handle_rreq(relayed.packet, 1, 1.002)
    (back,) = b._handle_rrep(rrep.packet, 2, 1.003)
    assert (rreq.bits, relayed.bits, rrep.bits, back.bits) == (400, 400, 480, 480)


def test_duplicate_rreq_suppressed():
    env = line_env()
    b = AodvNode(1, env)
    pkt = AodvRreq(0, 7, 3, 0, 0)
    assert b._handle_rreq(pkt, 0, 1.0) != []
    assert b._handle_rreq(pkt, 0, 1.1) == []


def test_route_install_prefers_seq_then_hops():
    env = line_env()
    b = AodvNode(1, env)
    b._install(2, 0, 4, 10, 1.0)
    b._install(2, 0, 3, 9, 1.0)  # lower seq loses
    assert b.routes[2].hop_count == 4
    b._install(2, 0, 6, 10, 1.0)  # equal seq, more hops loses
    assert b.routes[2].hop_count == 4
    b._install(2, 0, 2, 10, 1.0)  # equal seq, fewer hops wins
    assert b.routes[2].hop_count == 2
    b._install(2, 0, 9, 11, 1.0)  # higher seq wins regardless
    assert b.routes[2].hop_count == 9


def test_discovery_timeout_retries_then_fails():
    env = StubEnv({0: Position(0, 0), 2: Position(900, 0)}, sink_id=2)
    node = AodvNode(0, env)
    node.start_flow(5, 1e5, 1.0)
    out = node.on_data_emit(5, 2000, 0, 1.0)
    for retry in range(env.retry.max_retries):
        out = node.on_timer("aodv_timeout", timer_payload(out), 1.5 + retry)
        assert any(isinstance(e, Broadcast) for e in out)
    out = node.on_timer("aodv_timeout", timer_payload(out), 9.0)
    assert out == []
    assert node.flows[5].failed
    assert node.retries is None
    assert any(r[2] == "flow_failed" for r in env.rows)


def test_stale_discovery_timer_is_ignored():
    """A timeout armed by a closed discovery neither retries nor fails the next one."""
    env = line_env()
    env.retry = replace(env.retry, max_retries=0)
    node = AodvNode(0, env)
    node.start_flow(5, 1e5, 1.0)
    first = timer_payload(node.on_data_emit(5, 2000, 0, 1.0))
    node._handle_rrep(AodvRrep(0, 1, 1), 1, 1.1)  # discovery 1 closes: sink via node 1
    env.alive = lambda nid: nid != 1
    out = node.on_data_emit(5, 2000, 1, 1.2)  # the next hop is dead: discovery 2 opens
    assert any(isinstance(e, Broadcast) for e in out)
    assert node.on_timer("aodv_timeout", first, 1.0 + env.retry.rrep_wait) == []
    assert not node.flows[5].failed
    assert env.rows_of("flow_failed") == []


def test_broken_next_hop_invalidates_and_rediscovers():
    env = line_env()
    node = AodvNode(0, env)
    node._install(2, 1, 2, 5, 1.0)
    dead = set()
    env.alive = lambda nid: nid not in dead
    out = node.forward_data(Data(5, 2000, 1.0, 0), 1.0)
    assert isinstance(out[0], Unicast)
    dead.add(1)
    node.flows[5] = node.flows.get(5) or None
    node.flows.pop(5, None)
    out = node.forward_data(Data(5, 2000, 1.2, 1), 1.2)
    assert out == []
    assert not node.routes[2].valid
    assert any(r[2] == "route_invalidate" for r in env.rows)
    assert any(r[2] == "drop" and r[5] == "no_route" for r in env.rows)


# Node 21 dies at t=1.18 s; node 6 then gets a route reply toward sink 10 through it.
DEAD_RELAY_SCENARIO = (
    "[topology]\nn = 40\nfield_width = 600.0\nfield_height = 600.0\nseed = 7\n"
    "[protocol]\nname = aodv\n"
    "[energy]\ninitial_j = 0.2\n"
    "[sim]\nduration_s = 4.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
    "[flow:1]\nrate_bps = 200000.0\nstart_s = 1.0\n"
    "[flow:2]\nrate_bps = 150000.0\nstart_s = 1.0\n"
)


def test_flush_ends_when_route_runs_through_dead_node():
    """Flushing the buffer over a route through a dead node invalidates it and returns.

    The run goes in a child process with a timeout and a memory cap, so that
    an endless flush fails this test instead of hanging the suite.
    """
    code = textwrap.dedent(f"""
        import json
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from qgrpsim.config import parse_config
        from qgrpsim.simulator import Engine
        engine = Engine(parse_config({DEAD_RELAY_SCENARIO!r})).run()
        print(json.dumps([row[1:] for row in engine.event_log if row[2] == "route_invalidate"]))
    """)
    src = str(Path(qgrpsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert [6, "route_invalidate", 10, 21] in json.loads(proc.stdout)


def bfs_distance(positions, tx_range, src, dst):
    """Shortest hop count on the connectivity graph, or None if unreachable."""
    frontier = deque([(src, 0)])
    seen = {src}
    while frontier:
        node, hops = frontier.popleft()
        if node == dst:
            return hops
        for other, pos in positions.items():
            if other in seen or distance(positions[node], pos) > tx_range:
                continue
            seen.add(other)
            frontier.append((other, hops + 1))
    return None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_discovery_matches_bfs(seed):
    cfg = parse_config(
        "[topology]\n"
        "n = 40\n"
        f"seed = {seed}\n"
        "[protocol]\nname = aodv\n"
        "[sim]\nduration_s = 3.0\nwarm_up_s = 0.5\nrepetitions = 1\n"
        "[flow:1]\nrate_bps = 50000.0\nstart_s = 1.0\n"
    )
    engine = Engine(cfg, table=constant_table(0.0)).run()
    src = engine.flows[0].source
    sink = engine.topology.sink_id
    positions = {n.id: n.position for n in engine.topology.nodes}
    want = bfs_distance(positions, cfg.topology.tx_range, src, sink)
    route = engine.nodes[src].protocol.routes.get(sink)
    if want is None:
        assert route is None or not route.valid
    else:
        assert route is not None and route.hop_count == want
