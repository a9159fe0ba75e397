"""First-Come-First-Served scheduler -- the paper's ``No_partitioning``.

Serves the globally oldest *ready* request (by enqueue cycle, request
sequence number as the deterministic tiebreaker); if no queued request
is bank-ready it serves the globally oldest one and eats the bank stall.
Under FCFS, memory-intensive applications keep many requests queued and
capture bandwidth roughly in proportion to their in-flight request
counts, starving low-intensity applications -- exactly the behaviour the
paper's motivation section describes.

Besides the per-app queues, the scheduler keeps one list of every
queued request in ``(enqueued, seq)`` order.  The engine enqueues in
time order, so a request is appended to its end; a direct caller that
enqueues out of order gets a bisect insert.  Selection scans that list
oldest first and stops at the first bank-ready request: on a saturated
channel this probes one bank instead of every queued request, which is
what keeps the scan linear rather than quadratic in queue depth.
"""

from __future__ import annotations

import bisect

from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready
from repro.sim.request import Request

__all__ = ["FCFSScheduler"]


def _age_key(req: Request) -> tuple[float, int]:
    return (req.enqueued, req.seq)


class FCFSScheduler(Scheduler):
    """Globally-oldest-first service (No_partitioning)."""

    name = "fcfs"

    def __init__(self, n_apps: int) -> None:
        super().__init__(n_apps)
        #: every queued request, oldest first (maintained by enqueue and
        #: select, mirroring the per-app queues)
        self._lane: list[Request] = []

    def enqueue(self, request: Request, now: float) -> None:
        Scheduler.enqueue(self, request, now)
        lane = self._lane
        if lane:
            last = lane[-1]
            if now < last.enqueued or (
                now == last.enqueued and request.seq < last.seq
            ):
                bisect.insort(lane, request, key=_age_key)
                return
        lane.append(request)

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        lane = self._lane
        # oldest-first scan with early exit: the first ready request IS
        # the oldest ready one, and the very first request is the
        # fallback when nothing is ready
        if channel is None:
            for req in lane:
                if ready(req):
                    break
            else:
                if not lane:
                    return None
                req = lane[0]
        else:
            if not self._channel_index()[1].get(channel, 0):
                return None
            oldest: Request | None = None
            for req in lane:
                if req.channel == channel:
                    if ready(req):
                        break
                    if oldest is None:
                        oldest = req
            else:
                assert oldest is not None  # guarded by the index above
                req = oldest
        lane.remove(req)
        return self._take(req)
