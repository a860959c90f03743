"""The engine's event log, with the receptions of one transmission kept as one entry.

At n = 400 almost every log row is a hello reception, and the receptions
of one broadcast share every field but the receiver.  An `EventLog` keeps
such consecutive rows as one `RxRun`: the shared fields once, and the
receiver ids in order.  It reads as the list of rows it stands for.
`log_entries` gives the stored form to the two readers that fold a log
(`metrics.compute_metrics`) or render it (`simulator.format_log`); each
also takes a plain list of rows, such as a parsed log.
"""

from __future__ import annotations

import operator
from array import array
from itertools import islice, zip_longest


class RxRun:
    """Consecutive rx rows as one log entry.

    Row k is (time, receivers[k], "rx", pkt_kind, bits, sender, joules):
    every field but the receiver is the very same object in each row.
    Receiver ids are node ids, so they fit an unsigned 32-bit array.
    """

    __slots__ = ("time", "receivers", "pkt_kind", "bits", "sender", "joules")

    def __init__(self, row: tuple, node_id: int):
        """The run of rx row `row` and the row that repeats it with node_id."""
        self.time, first, _, self.pkt_kind, self.bits, self.sender, self.joules = row
        self.receivers = array("I", (first, node_id))

    def __iter__(self):
        time, pkt_kind, bits, sender, joules = (
            self.time, self.pkt_kind, self.bits, self.sender, self.joules)
        for node_id in self.receivers:
            yield (time, node_id, "rx", pkt_kind, bits, sender, joules)


def log_entries(event_log) -> list:
    """The stored entries of an EventLog (rows and runs), or a plain list of rows itself."""
    return event_log.entries if type(event_log) is EventLog else event_log


class EventLog:
    """A log of row tuples that stores runs of rx rows as `RxRun` entries.

    Iterating yields every row as a tuple, in order; len is the row count,
    and equality, truth and indexing are those of the list of rows.
    `append` adds one row as it is; `extend_rx` adds an rx row by
    extending the last entry.
    """

    __slots__ = ("entries", "append")

    def __init__(self):
        self.entries: list = []
        self.append = self.entries.append

    def extend_rx(self, time, node_id: int, sender, joules) -> bool:
        """Add the rx row that repeats the last entry's fields with node_id, if it may.

        It may when the last entry is an rx row or run whose time, sender and
        joules are these very objects; the row's packet kind and bits are
        then the caller's to vouch for.  Returns whether the row was added.
        """
        log = self.entries
        if not log:
            return False
        last = log[-1]
        if type(last) is RxRun:
            if last.joules is joules and last.time is time and last.sender is sender:
                last.receivers.append(node_id)
                return True
        elif (len(last) == 7 and last[6] is joules and last[0] is time and last[5] is sender
                and last[2] == "rx"):
            log[-1] = RxRun(last, node_id)
            return True
        return False

    def __iter__(self):
        for entry in self.entries:
            if type(entry) is RxRun:
                yield from entry
            else:
                yield entry

    def __len__(self) -> int:
        return sum(len(e.receivers) if type(e) is RxRun else 1 for e in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        index = operator.index(index)
        size = len(self)
        i = index + size if index < 0 else index
        if not 0 <= i < size:
            raise IndexError("event log index out of range")
        return next(islice(self, i, None))

    def __eq__(self, other):
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        missing = object()
        return all(a is b or a == b for a, b in zip_longest(self, other, fillvalue=missing))
