"""The engine's event log, with the receptions of one transmission kept as one entry.

At n = 400 almost every log row is a hello reception, and the receptions
of one broadcast share every field but the receiver.  An `EventLog` keeps
such consecutive rows as one `RxRun`: the shared fields once, and the
receiver ids in order.  It reads as the list of rows it stands for.
`EventLog.add_rx` and `EventLog.append_rx` are the only writers of rx
rows: the first joins one row to the last entry when they share their
field objects, the second stores a whole run of rows at once.
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

    def __init__(self, time, receivers, pkt_kind: str, bits: int, sender: int, joules: float):
        """The rx rows of receivers, in order; the ids are copied."""
        self.time, self.pkt_kind, self.bits, self.sender, self.joules = (
            time, pkt_kind, bits, sender, joules)
        self.receivers = array("I", receivers)

    def __iter__(self):
        time, pkt_kind, bits, sender, joules = (
            self.time, self.pkt_kind, self.bits, self.sender, self.joules)
        for node_id in self.receivers:
            yield (time, node_id, "rx", pkt_kind, bits, sender, joules)


def log_entries(event_log):
    """The stored entries of an EventLog (rows and runs), or plain rows themselves."""
    return event_log.entries if type(event_log) is EventLog else event_log


class EventLog:
    """A log of row tuples that stores runs of rx rows as `RxRun` entries.

    Iterating yields every row as a tuple, in order; len is the row count,
    and equality, truth and indexing are those of the list of rows.
    `append` adds one row as it is; `add_rx` adds an rx row, joined to
    the last entry where it can be; `append_rx` adds the rx rows of
    several receivers at once.
    """

    __slots__ = ("entries", "append")

    def __init__(self):
        self.entries: list = []
        self.append = self.entries.append

    def add_rx(self, time, node_id: int, pkt_kind: str, bits: int, sender: int,
               joules: float):
        """Add the rx row (time, node_id, "rx", pkt_kind, bits, sender, joules).

        The row joins the last entry when that is an rx row or run whose
        time, packet kind, bits, sender and joules are these very objects
        (`is`, not `==`), and is appended as its plain row otherwise.
        """
        log = self.entries
        if log:
            last = log[-1]
            if type(last) is RxRun:
                if (last.time is time and last.sender is sender and last.joules is joules
                        and last.bits is bits and last.pkt_kind is pkt_kind):
                    last.receivers.append(node_id)
                    return
            elif (last[0] is time and last[2] == "rx" and last[5] is sender
                  and last[6] is joules and last[4] is bits and last[3] is pkt_kind):
                log[-1] = RxRun(time, (last[1], node_id), pkt_kind, bits, sender, joules)
                return
        log.append((time, node_id, "rx", pkt_kind, bits, sender, joules))

    def append_rx(self, time, receivers, pkt_kind: str, bits: int, sender: int,
                  joules: float):
        """Add one rx row per receiver, in order, every other field shared.

        receivers holds one id or more, and is copied.  One receiver is
        stored as its plain row and more as one `RxRun`, never joined to
        the last entry: what `add_rx` of each row leaves after a row of
        another kind.
        """
        if len(receivers) == 1:
            self.append((time, receivers[0], "rx", pkt_kind, bits, sender, joules))
        else:
            self.append(RxRun(time, receivers, pkt_kind, bits, sender, joules))

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
