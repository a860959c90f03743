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
    """An EventLog filled as the engine fills it, the plain rows it stands for, and the
    number of rows each stored entry should hold.

    A block is one transmission's receptions: its time is an object of its
    own, and its rows share the time, packet kind, bits, sender and joules
    objects.  A block's values may repeat the last block's, in other objects
    or in equal values of another type, which never join its run.  As in
    `Engine._on_arrival`, a receiver that survives logs its row through
    add_rx.  A receiver may be dead (no row), may die (other joules, a plain
    row through append_rx, then a death row), or its handler may log rows
    before the next reception.
    """
    log, rows, sizes = EventLog(), [], []

    def plain(row):
        log.append(row)
        rows.append(row)
        sizes.append(1)

    for node in draw(st.lists(NODE_IDS, unique=True, max_size=4)):
        plain((0.0, node, "node", 0.0, 0.0, draw(FLOATS), "sensor"))
    time = joules = 0.0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            plain(other_row(draw, time))
            continue
        # An equal time after the last block's is a different object, as a new end time is.
        time = fresh(draw(st.just(time) | FLOATS))
        pkt_kind, bits, sender = draw(PKT_KINDS), draw(BITS), draw(SENDERS)
        joules = fresh(draw(st.just(joules) | FLOATS))
        fates = st.sampled_from(["heard", "heard", "heard", "dead", "dies", "handler"])
        joinable = False  # whether the last entry holds this block's rows
        for fate in draw(st.lists(fates, min_size=1, max_size=6)):
            if fate == "dead":
                continue
            node = draw(NODE_IDS)
            if fate == "dies":
                consumed = fresh(draw(st.just(joules) | FLOATS))
                log.append_rx(time, (node,), pkt_kind, bits, sender, consumed)
                rows.append((time, node, "rx", pkt_kind, bits, sender, consumed))
                sizes.append(1)
                plain((time, node, "death"))
                joinable = False
                continue
            log.add_rx(time, node, pkt_kind, bits, sender, joules)
            rows.append((time, node, "rx", pkt_kind, bits, sender, joules))
            if joinable:
                sizes[-1] += 1
            else:
                sizes.append(1)
            joinable = True
            if fate == "handler":
                for _ in range(draw(st.integers(1, 2))):
                    plain(other_row(draw, time))
                joinable = False
    return log, rows, sizes


@given(logged())
def test_event_log_reads_as_its_rows(case):
    log, rows, sizes = case
    # A block's receptions with no row between are one entry, and no entry holds rows of
    # two blocks.
    assert [len(e.receivers) if type(e) is RxRun else 1 for e in log.entries] == sizes
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
    for node in (4, 5, 6):
        log.add_rx(t, node, "hello", 160, 9, joules)
    (run,) = log.entries
    assert type(run) is RxRun
    # A receiver that dies logs its row and its death row as plain tuples, and the next
    # reception starts an entry of its own: the run before the death is no longer last.
    log.append_rx(t, (7,), "hello", 160, 9, other)
    log.append((t, 7, "death"))
    log.add_rx(t, 8, "hello", 160, 9, joules)
    log.add_rx(t, 3, "hello", 160, 9, joules)
    assert type(log.entries[-1]) is RxRun
    # A handler's row comes between, so the next reception is a plain row again.
    log.add_rx(t, 1, "hello", 160, 9, joules)
    log.append((t, 1, "tx", "rreq", 480, -1, 1, 0.0, 0.0, -1, -1))
    log.add_rx(t, 0, "hello", 160, 9, joules)
    assert [type(entry) for entry in log.entries] == [RxRun, tuple, tuple, RxRun, tuple, tuple]
    assert [row[1] for row in log] == [4, 5, 6, 7, 7, 8, 3, 1, 1, 0]
    assert list(run.receivers) == [4, 5, 6]


def test_equal_fields_that_are_other_objects_are_not_joined():
    t, joules = 1.5, 1e-6
    shared = (t, "hello", 160, 1, joules)
    # The same value in another object, or an equal value of another type, per field.
    others = (fresh(t), "".join(["hel", "lo"]), 160.0, True, fresh(joules))
    log = EventLog()
    log.add_rx(t, 0, *shared[1:])
    expected = [(t, 0, "rx", *shared[1:])]
    for k, other in enumerate(others):
        assert other == shared[k] and other is not shared[k]
        fields = shared[:k] + (other,) + shared[k + 1:]
        for fields_now in (fields, shared):
            log.add_rx(fields_now[0], k + 1, *fields_now[1:])
            expected.append((fields_now[0], k + 1, "rx", *fields_now[1:]))
    assert all(type(entry) is tuple for entry in log.entries)
    assert log.entries == expected
    assert all(a is b for row, want in zip(log, expected) for a, b in zip(row, want))


@pytest.mark.parametrize("size", [1, 2, 5])
def test_append_rx_stores_what_the_row_by_row_chain_stores(size):
    t, kind, bits, sender, joules = 1.5, "hello", 160, 70_000, 1e-6
    receivers = [4, 255, 70_000, 2**32 - 1, 0][:size]
    chained = EventLog()
    for node in receivers:
        chained.add_rx(t, node, kind, bits, sender, joules)
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


@pytest.mark.parametrize("protocol", ["qgrp", "aodv"])
def test_event_log_holds_a_third_of_its_rows_memory(protocol):
    # The light benchmark workload's density (400 nodes per km^2) and traffic on a quarter
    # of its field.  Hello receptions make most of QGRP's rows, as they do at n = 400, and
    # RREQ flood receptions most of AODV's: add_rx joins those into runs.
    cfg = parse_config(
        f"[protocol]\nname = {protocol}\n"
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
