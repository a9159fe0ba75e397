"""Memory request records flowing core -> controller -> DRAM."""

from __future__ import annotations

import itertools

__all__ = ["Request"]

_seq_counter = itertools.count()
_next_seq = _seq_counter.__next__


class Request:
    """One off-chip memory access (a last-level-cache miss or writeback).

    Timestamps are CPU cycles; ``-1`` means "not yet".  ``seq`` is a
    global monotonically increasing tiebreaker so scheduler decisions are
    fully deterministic.  Issue and completion are not stamped: the
    completion cycle travels in the engine's COMPLETE event, and
    latency is accumulated per application there.

    The engine creates one Request per off-chip access, so it is a plain
    ``__slots__`` class with a hand-written ``__init__`` (cheaper than a
    dataclass's, and no ``__dict__`` on the scheduler hot paths).
    Equality is identity: every request is unique (seq), and queue
    removal must not pay a field-by-field comparison per element.
    """

    __slots__ = ("app_id", "line_addr", "is_write", "created", "channel",
                 "bank", "row", "enqueued", "seq")

    def __init__(
        self,
        app_id: int,
        line_addr: int,
        is_write: bool,
        created: float,
        channel: int = 0,
        bank: int = 0,
        row: int = 0,
    ) -> None:
        self.app_id = app_id
        self.line_addr = line_addr
        self.is_write = is_write
        self.created = created
        #: decoded DRAM coordinates, filled in at creation by the core
        #: (the stream hands them back with the address)
        self.channel = channel
        self.bank = bank
        self.row = row
        #: cycle the request entered the controller queue
        self.enqueued = -1.0
        self.seq = _next_seq()

