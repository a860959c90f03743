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
    objects.  As in `Engine.run` and `Engine._on_arrival`, each reception
    gets the entry the block's previous reception returned, None for the
    first, and a receiver that survives offers its row to extend_rx first.
    A receiver may be dead (no row, the entry passes on), may die (other
    joules, a plain row, then a death row, and None passes on), or its
    handler may log rows before the next reception.
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
        entry = None
        for fate in draw(st.lists(fates, min_size=1, max_size=6)):
            if fate == "dead":
                continue
            node = draw(NODE_IDS)
            consumed = joules if fate != "dies" else fresh(draw(st.just(joules) | FLOATS))
            row = (time, node, "rx", pkt_kind, bits, sender, consumed)
            entry = log.extend_rx(entry, node) if entry is not None and fate != "dies" else None
            if entry is None:
                entry = row
                log.append(row)
            rows.append(row)
            if fate == "dies":
                entry = None
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
    first = (t, 4, "rx", "hello", 160, 9, joules)
    log.append(first)
    run = log.extend_rx(first, 5)
    assert type(run) is RxRun
    assert log.extend_rx(run, 6) is run
    assert log.entries == [run]
    # A receiver that dies logs its row and its death row as plain tuples, and hands
    # None on: a block's first reception gets None too, and None is never last.
    log.append((t, 7, "rx", "hello", 160, 9, other))
    log.append((t, 7, "death"))
    assert log.extend_rx(None, 8) is None
    row = (t, 8, "rx", "hello", 160, 9, joules)
    log.append(row)
    second = log.extend_rx(row, 3)
    assert type(second) is RxRun
    # An entry that is no longer last is refused, a run or a row.
    assert log.extend_rx(run, 2) is None
    handled = (t, 1, "rx", "hello", 160, 9, joules)
    log.append(handled)
    log.append((t, 1, "tx", "rreq", 480, -1, 1, 0.0, 0.0, -1, -1))
    assert log.extend_rx(handled, 0) is None
    assert log.extend_rx(second, 0) is None
    assert [type(entry) for entry in log.entries] == [RxRun, tuple, tuple, RxRun, tuple, tuple]
    assert [row[1] for row in log] == [4, 5, 6, 7, 7, 8, 3, 1, 1]
    assert EventLog().extend_rx(None, 1) is None
    assert EventLog().extend_rx(first, 1) is None


@pytest.mark.parametrize("size", [1, 2, 5])
def test_append_rx_stores_what_the_row_by_row_chain_stores(size):
    t, kind, bits, sender, joules = 1.5, "hello", 160, 70_000, 1e-6
    receivers = [4, 255, 70_000, 2**32 - 1, 0][:size]
    chained = EventLog()
    entry = (t, receivers[0], "rx", kind, bits, sender, joules)
    chained.append(entry)
    for node in receivers[1:]:
        entry = chained.extend_rx(entry, node)
    log = EventLog()
    log.append((0.0, 9, "death"))
    log.append_rx(t, receivers, kind, bits, sender, joules)
    receivers.append(7)
    receivers[0] = 8
    assert list(log)[1:] == list(chained)
    (stored,) = log.entries[1:]
    (expected,) = chained.entries
    assert type(stored) is type(expected) is (tuple if size == 1 else RxRun)
    if size == 1:
        assert stored == expected
        shared = stored[:1] + stored[3:]
    else:
        assert stored.receivers == expected.receivers
        shared = (stored.time, stored.pkt_kind, stored.bits, stored.sender, stored.joules)
    # The shared fields are the objects passed in, as the chain's are its first row's.
    assert all(a is b for a, b in zip(shared, (t, kind, bits, sender, joules)))


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
