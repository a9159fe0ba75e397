"""Memory-scheduler interface and shared queue bookkeeping.

A scheduler owns one FIFO queue per application and decides which queued
request to serve next.  The engine calls :meth:`Scheduler.select` with a
*readiness probe*: ``ready(request)`` is True when the request's bank
will have completed its activate in time for the request's data transfer
to start the moment the data bus frees (i.e. issuing it creates no bus
bubble).  All policies prefer ready requests -- mirroring how real
controllers issue around busy banks (bank-level parallelism,
Sec. II-A1) -- and fall back to their policy winner, eating the bank
stall, when nothing is ready.

Within one application requests may be served slightly out of order
(around busy banks); they are independent cache lines, so this is safe
and is what hardware does.  *Across* applications the service order is
exactly the policy under study.

Queue indexing: per-channel questions (``has_pending``/``pending_apps``
/``pending_count`` with a channel, and channel-filtered selects) are
answered from per-(app, channel) pending counters rather than by
scanning the queues (the scans made a saturated channel degrade
quadratically with queue depth).  The counters are built from the
queues by the first per-channel question and maintained incrementally
in :meth:`enqueue`/:meth:`_take` after that, so a one-channel run --
which only ever asks with ``channel=None`` -- never pays for them.  A
request's ``channel`` must therefore be final before it is enqueued
(the cores decode addresses at request creation).  With no index
built, the one-channel STF and priority selects take a ready head
straight off its deque instead of calling :meth:`_take`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Iterator

from repro.sim.request import Request
from repro.util.errors import SimulationError

__all__ = ["Scheduler", "ReadyProbe"]

ReadyProbe = Callable[[Request], bool]
#: (per-app {channel: pending count}, {channel: pending count})
_ChannelIndex = tuple[list[dict[int, int]], dict[int, int]]


def _always_ready(_req: Request) -> bool:
    return True


def _oldest_passing(
    queue: Deque[Request], channel: int | None, ok: ReadyProbe
) -> Request | None:
    """The oldest request of ``queue`` -- least ``(enqueued, seq)`` --
    that targets ``channel`` (any when None) and passes ``ok``, or None.

    Queue order is age order unless a caller enqueued out of time
    order, so ``ok`` is asked only about requests older than the best
    found so far: in an age-ordered queue, the scan probes up to the
    first passing request and then only compares ages.
    """
    best = None
    best_age = 0.0
    for req in queue:
        if channel is not None and req.channel != channel:
            continue
        if best is not None:
            age = req.enqueued
            if age > best_age or (age == best_age and req.seq >= best.seq):
                continue
        if ok(req):
            best = req
            best_age = req.enqueued
    return best


class Scheduler(ABC):
    """Base class for memory-request schedulers."""

    #: short identifier used in configs and reports
    name: str = "scheduler"

    def __init__(self, n_apps: int) -> None:
        if n_apps <= 0:
            raise SimulationError("scheduler needs at least one application")
        self.n_apps = n_apps
        self.queues: list[Deque[Request]] = [deque() for _ in range(n_apps)]
        self.total_queued = 0
        self.n_enqueued = 0
        self.n_served = 0
        #: the queue index -- per-app {channel: pending count} and
        #: {channel: pending count} across all apps -- or None until the
        #: first per-channel question (see _channel_index)
        self._chan_index: _ChannelIndex | None = None

    # ------------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> None:
        """Accept a request into its application's queue."""
        request.enqueued = now
        app_id = request.app_id
        self.queues[app_id].append(request)
        self.total_queued += 1
        self.n_enqueued += 1
        index = self._chan_index
        if index is not None:
            per_app, total = index
            chan = request.channel
            counts = per_app[app_id]
            counts[chan] = counts.get(chan, 0) + 1
            total[chan] = total.get(chan, 0) + 1

    def _channel_index(self) -> _ChannelIndex:
        """The per-(app, channel) pending counters, built on first use."""
        index = self._chan_index
        if index is None:
            total: dict[int, int] = {}
            per_app = []
            for q in self.queues:
                counts: dict[int, int] = {}
                for req in q:
                    chan = req.channel
                    counts[chan] = counts.get(chan, 0) + 1
                    total[chan] = total.get(chan, 0) + 1
                per_app.append(counts)
            index = self._chan_index = (per_app, total)
        return index

    def has_pending(self, channel: int | None = None) -> bool:
        """Any queued request (optionally: targeting one channel)."""
        if channel is None:
            return self.total_queued > 0
        return self._channel_index()[1].get(channel, 0) > 0

    def pending_apps(self, channel: int | None = None) -> Iterator[int]:
        """Applications with at least one queued request (per channel)."""
        if channel is None:
            for app_id, q in enumerate(self.queues):
                if q:
                    yield app_id
        else:
            for app_id, counts in enumerate(self._channel_index()[0]):
                if counts.get(channel, 0):
                    yield app_id

    def pending_count(self, app_id: int, channel: int | None = None) -> int:
        """Queued requests of one app (optionally: targeting one channel)."""
        if channel is None:
            return len(self.queues[app_id])
        return self._channel_index()[0][app_id].get(channel, 0)

    def queue_depth(self, app_id: int) -> int:
        return len(self.queues[app_id])

    # ------------------------------------------------------------------
    @abstractmethod
    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        """Choose and *remove* the next request to serve, or ``None``.

        ``channel`` restricts candidates to requests targeting that DRAM
        channel (multi-channel controllers arbitrate per channel while
        the partitioning policy state -- tags, priorities -- is global).
        """

    # -- helpers for subclasses ----------------------------------------
    def _requests(self, app_id: int, channel: int | None) -> Iterator[Request]:
        """App's queued requests, oldest first, filtered by channel."""
        if channel is None:
            yield from self.queues[app_id]
            return
        for req in self.queues[app_id]:
            if req.channel == channel:
                yield req

    def _oldest_ready(
        self, app_id: int, ready: ReadyProbe, channel: int
    ) -> Request | None:
        """Oldest request of ``app_id`` on ``channel`` that passes the
        readiness probe (one-channel selects scan the queue directly)."""
        for req in self.queues[app_id]:
            if req.channel == channel and ready(req):
                return req
        return None

    def _take(self, req: Request) -> Request:
        """Remove a specific request from its queue."""
        q = self.queues[req.app_id]
        # schedulers usually take the head (FIFO order within an app)
        if q and q[0] is req:
            q.popleft()
        else:
            try:
                q.remove(req)
            except ValueError:  # pragma: no cover - defensive
                raise SimulationError(f"request {req.seq} not queued") from None
        self.total_queued -= 1
        self.n_served += 1
        index = self._chan_index
        if index is None:
            return req
        per_app, total = index
        chan = req.channel
        counts = per_app[req.app_id]
        left = counts.get(chan, 0) - 1
        if left <= 0:
            if left < 0:  # pragma: no cover - defensive
                raise SimulationError(
                    f"channel index underflow for app {req.app_id}"
                )
            del counts[chan]
        else:
            counts[chan] = left
        left = total[chan] - 1
        if left:
            total[chan] = left
        else:
            del total[chan]
        return req

    def _pop_head(self, app_id: int, channel: int | None = None) -> Request:
        """Remove and return the oldest request of ``app_id`` (per channel)."""
        for req in self._requests(app_id, channel):
            return self._take(req)
        raise SimulationError(f"pop from empty queue of app {app_id}")

    # ------------------------------------------------------------------
    def update_shares(self, beta) -> None:  # noqa: ANN001 - numpy or sequence
        """Re-partition hook (online profiling, Sec. IV-C).

        Share-enforcing schedulers override this; others ignore it.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_apps={self.n_apps})"
