"""FR-FCFS scheduler (Rixner et al., ISCA'00) -- the classic
utilization-first baseline discussed in paper Sec. II-A1.

First-Ready FCFS prioritizes requests that hit an open row buffer
(column accesses) over those that need an activate (row accesses),
breaking ties oldest-first; among non-hits it prefers bank-ready
requests.  It maximizes row-buffer hit rate and hence bandwidth
utilization, but provides no isolation between applications -- under
it an application with high row locality can starve the others (the
"biased scheduling" starvation problem of Sec. II-A2).

Only meaningful with the open-page policy; under close-page there are
never open rows and it degenerates to (first-ready) FCFS.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready
from repro.sim.mc.fcfs import _age_key
from repro.sim.request import Request

__all__ = ["FRFCFSScheduler"]


# Paper content: FR-FCFS, the row-hit-first throughput baseline of
# Sec. II-A1; tests/sim/make_golden.py pins it as an engine golden.
class FRFCFSScheduler(Scheduler):  # reprolint: disable=dead-code
    """Row-hit-first, then ready-oldest, then oldest.

    Parameters
    ----------
    n_apps:
        Number of applications.
    row_hit_probe:
        Callback ``(request) -> bool`` reporting whether the request
        currently hits an open row; the engine wires this to
        :meth:`repro.sim.dram.system.DRAMSystem.is_row_hit`.
    cap:
        Starvation cap: a request older than ``cap`` cycles is served
        before any younger row hit (a standard FR-FCFS guard; set to
        ``None`` to disable).
    """

    name = "frfcfs"

    def __init__(
        self,
        n_apps: int,
        row_hit_probe: Callable[[Request], bool] | None = None,
        cap: float | None = 10000.0,
    ) -> None:
        super().__init__(n_apps)
        self.row_hit_probe = row_hit_probe or (lambda _req: False)
        self.cap = cap

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        # single age-ordered scan (lazy merge of the age-sorted per-app
        # queues): the first request is the oldest, the first ready one
        # is the oldest ready, and the scan stops at the first ready row
        # hit -- nothing younger can beat it on any criterion
        oldest: Request | None = None
        oldest_ready: Request | None = None
        oldest_hit: Request | None = None
        lanes = [
            self._requests(a, channel)
            for a in range(self.n_apps)
            if self.pending_count(a, channel)
        ]
        for req in heapq.merge(*lanes, key=_age_key):
            if oldest is None:
                oldest = req
            if oldest_ready is None and ready(req):
                oldest_ready = req
                if self.row_hit_probe(req):
                    oldest_hit = req
                    break
            elif oldest_ready is not None and ready(req) and self.row_hit_probe(req):
                oldest_hit = req
                break
        if oldest is None:
            return None
        # starvation guard: very old requests win over row hits
        if (
            self.cap is not None
            and oldest_hit is not None
            and oldest is not oldest_hit
            and now - oldest.enqueued > self.cap
        ):
            return self._take(oldest)
        chosen = oldest_hit or oldest_ready or oldest
        return self._take(chosen)
