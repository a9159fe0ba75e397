"""Strict-priority scheduler (paper Sec. III-D/E, V-D).

Drives the ``Priority_APC`` and ``Priority_API`` partitioning schemes:
memory requests of a higher-priority application are always served
before any request of a lower-priority one (bank-busy requests are
skipped in favour of the next priority level, as hardware would).  The
paper is explicit that this deliberately causes starvation of
low-priority (high ``APC_alone`` / high ``API``) applications --
starvation is the price of optimal throughput metrics -- so no
starvation guard is applied by default.  An optional guard is provided
for ablation experiments.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready
from repro.sim.request import Request
from repro.util.errors import ConfigurationError

__all__ = ["PriorityScheduler"]


class PriorityScheduler(Scheduler):
    """Fixed-rank strict priority.

    Parameters
    ----------
    n_apps:
        Number of applications.
    priority_order:
        Application indices from highest priority to lowest (e.g. the
        output of ``PriorityAPC.priority_order``).
    starvation_cap:
        Optional age (cycles) beyond which a starving request is served
        regardless of priority.  ``None`` (default) reproduces the
        paper's pure scheme.
    """

    name = "priority"

    def __init__(
        self,
        n_apps: int,
        priority_order: Sequence[int],
        *,
        starvation_cap: float | None = None,
    ) -> None:
        super().__init__(n_apps)
        order = [int(i) for i in priority_order]
        if sorted(order) != list(range(n_apps)):
            raise ConfigurationError(
                f"priority_order must be a permutation of 0..{n_apps - 1}, "
                f"got {order}"
            )
        self.priority_order = order
        #: rank[app] = position in the priority order (0 = highest)
        self.rank = [0] * n_apps
        for pos, app in enumerate(order):
            self.rank[app] = pos
        self.starvation_cap = starvation_cap

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        if self.starvation_cap is not None:
            # serve any over-age request first (oldest such)
            best: Request | None = None
            for app_id in self.pending_apps(channel):
                head = next(self._requests(app_id, channel))
                if now - head.enqueued > self.starvation_cap and (
                    best is None or (head.enqueued, head.seq) < (best.enqueued, best.seq)
                ):
                    best = head
            if best is not None:
                return self._take(best)
        if channel is None:
            queues = self.queues
            top = None
            for app_id in self.priority_order:
                q = queues[app_id]
                if q:
                    if top is None:
                        top = q
                    for req in q:
                        if ready(req):
                            if req is q[0] and self._chan_index is None:
                                self.total_queued -= 1  # head-take, no index
                                self.n_served += 1
                                return q.popleft()
                            return self._take(req)
            # nothing bank-ready: highest-priority head eats the bank stall
            return None if top is None else self._take(top[0])
        # the pending-count index skips empty priority levels outright
        top_app = None
        for app_id in self.priority_order:
            if self.pending_count(app_id, channel):
                if top_app is None:
                    top_app = app_id
                req = self._oldest_ready(app_id, ready, channel)
                if req is not None:
                    return self._take(req)
        return None if top_app is None else self._pop_head(top_app, channel)
