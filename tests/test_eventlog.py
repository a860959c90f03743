"""The compact event log must read exactly as the plain list of rows it stands for."""

import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgrpsim.config import parse_config
from qgrpsim.eventlog import EventLog, RxRun
from qgrpsim.metrics import compute_metrics
from qgrpsim.simulator import Engine, format_log, parse_log
from conftest import make_config, reference_format_log


def fresh(value):
    """An equal value that is a different object, where the type allows one."""
    return float.fromhex(value.hex()) if type(value) is float else value


# Finite, so that parse_log reads the text back and the metrics compare equal.
FLOATS = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-6, 5e-324])
NODE_IDS = st.sampled_from([0, 1, 2, 255, 70_000, 2**32 - 1])
# Equal values of different types: a sender 1 or True, bits 160 or 160.0, 1 or True.
SENDERS = st.sampled_from([0, 1, True, 70_000])
BITS = st.sampled_from([160, 160.0, 1, True])
PKT_KINDS = st.sampled_from(["hello", "rreq", "aodvrreq"])


def other_row(draw, time):
    node = draw(NODE_IDS)
    return draw(st.sampled_from([
        (time, node, "tx", "hello", 160, -1, 1, draw(FLOATS), draw(FLOATS), -1, -1),
        (time, node, "death"),
        (time, node, "origin", 1, draw(st.integers(0, 3))),
        (time, node, "deliver", 1, draw(st.integers(0, 3)), draw(FLOATS), 2000),
        # A unicast's reception, logged as a plain row.
        (time, node, "rx", "data", 2160, draw(SENDERS), draw(FLOATS)),
    ]))


@st.composite
def logged(draw):
    """An EventLog filled as the engine fills it, and the plain rows it stands for.

    A block is one transmission's receptions: its time is an object of its
    own, and its rows share the time, packet kind, bits, sender and joules
    objects.  Reception k >= 1 goes through extend_rx first, as in
    `Engine._on_arrival`.  A receiver may be dead (no row), may die (other
    joules, then a death row), or its handler may log rows before the next
    reception.
    """
    log, rows = EventLog(), []

    def plain(row):
        log.append(row)
        rows.append(row)

    for node in draw(st.lists(NODE_IDS, unique=True, max_size=4)):
        plain((0.0, node, "node", 0.0, 0.0, draw(FLOATS), "sensor"))
    time = 0.0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            plain(other_row(draw, time))
            continue
        # An equal time after the last block's is a different object, as a new end time is.
        time = fresh(draw(st.just(time) | FLOATS))
        pkt_kind, bits, sender, joules = draw(PKT_KINDS), draw(BITS), draw(SENDERS), draw(FLOATS)
        fates = st.sampled_from(["heard", "heard", "heard", "dead", "dies", "handler"])
        for k, fate in enumerate(draw(st.lists(fates, min_size=1, max_size=6))):
            if fate == "dead":
                continue
            node = draw(NODE_IDS)
            consumed = joules if fate != "dies" else fresh(draw(st.just(joules) | FLOATS))
            row = (time, node, "rx", pkt_kind, bits, sender, consumed)
            if not (k and log.extend_rx(time, node, sender, consumed)):
                log.append(row)
            rows.append(row)
            if fate == "dies":
                plain((time, node, "death"))
            elif fate == "handler":
                for _ in range(draw(st.integers(1, 2))):
                    plain(other_row(draw, time))
    return log, rows


@given(logged())
def test_event_log_reads_as_its_rows(case):
    log, rows = case
    assert list(log) == rows
    assert len(log) == len(rows)
    assert bool(log) == bool(rows)
    assert [log[i] for i in range(-len(rows), len(rows))] == rows + rows
    assert log[1:] == rows[1:]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            log[index]
    assert log == rows
    assert rows == log
    assert not log != rows
    assert log != rows + [(0.0, 0, "death")]
    if rows:
        assert log != rows[:-1]
        assert rows[:-1] + [rows[-1][:1]] != log
    text = format_log(log)
    assert text == reference_format_log(rows)
    if rows:
        assert parse_log(text) == rows
    if any(row[2] == "node" for row in rows):
        cfg = make_config()
        assert compute_metrics(log, cfg) == compute_metrics(rows, cfg)


def test_a_block_is_one_entry_until_a_row_comes_between():
    log = EventLog()
    t, joules, other = 1.5, 1e-6, 2e-6
    log.append((t, 4, "rx", "hello", 160, 9, joules))
    assert log.extend_rx(t, 5, 9, joules)
    assert log.extend_rx(t, 6, 9, joules)
    assert [type(entry) for entry in log.entries] == [RxRun]
    # A receiver that dies consumes other joules, and its death row comes between.
    assert not log.extend_rx(t, 7, 9, other)
    log.append((t, 7, "rx", "hello", 160, 9, other))
    log.append((t, 7, "death"))
    assert not log.extend_rx(t, 8, 9, joules)
    log.append((t, 8, "rx", "hello", 160, 9, joules))
    assert log.extend_rx(t, 3, 9, joules)
    # The same values of another block are other objects.
    assert not log.extend_rx(float.fromhex(t.hex()), 2, 9, joules)
    assert [type(entry) for entry in log.entries] == [RxRun, tuple, tuple, RxRun]
    assert [row[1] for row in log] == [4, 5, 6, 7, 7, 8, 3]
    assert not EventLog().extend_rx(t, 1, 9, joules)


def freed_bytes(drop) -> int:
    """Bytes that tracemalloc sees freed when drop() lets go of what it holds."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    drop()
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def test_event_log_holds_a_third_of_its_rows_memory():
    # The light benchmark workload's density (400 nodes per km^2) and traffic on a quarter
    # of its field, so hello receptions make most rows, as they do at n = 400.
    cfg = parse_config(
        "[topology]\nn = 100\nseed = 7\nfield_width = 500.0\nfield_height = 500.0\n"
        "[sim]\nduration_s = 4.0\nwarm_up_s = 1.0\nrepetitions = 1\n"
        + "".join(f"[flow:{i}]\nrate_bps = 20000.0\nstart_s = 1.0\n" for i in range(3))
    )
    tracemalloc.start()
    try:
        engine = Engine(cfg).run()
        compact = freed_bytes(lambda: setattr(engine, "event_log", None))
        engine = Engine(cfg).run()
        rows = [list(engine.event_log)]
        engine.event_log = None
        plain = freed_bytes(rows.clear)
    finally:
        tracemalloc.stop()
    assert 0 < compact <= plain / 3, (compact, plain)
