"""Start-Time-Fair share enforcement (paper Sec. IV-B).

The enforcement mechanism for all share-based partitioning schemes.  It
is the paper's modification of DRAM Start-Time Fair queuing (DSTF,
Rafique et al., PACT'07): each application ``a`` carries a virtual
start-time tag updated per served request as

    S_a_i = S_a_{i-1} + 1 / beta_a

and the scheduler serves the pending application with the smallest tag.
Crucially -- and unlike the original DSTF -- the tag does *not* depend
on request arrival time: an application that was idle (or under-served)
keeps its old small tag and catches up on its share as soon as it has
requests again.  This is the modification the paper introduces so that
low-memory-intensity applications reliably achieve their allocated
fraction.

The scheduler is work-conserving: if only one application has pending
requests it is served regardless of its tag, so bandwidth unused by an
application flows to the others (which is what makes measured shares
match the capped water-filling of the analytical model).  Bank-busy
requests are skipped in favour of the next-smallest-tag application
(bank-level parallelism), falling back to the policy winner's head when
nothing is ready.

Tags and strides live in plain Python lists on the select path (numpy
scalar indexing costs ~10x a list index at this grain); ``tags`` /
``beta`` remain numpy views for callers.  The service order is one
ascending list of ``(tag, app_id)``: only the served app's tag moves
(``update_shares`` never touches tags), so a remove and a
``bisect.insort`` keep it, and a select walks it skipping empty queues
-- the order a per-select sort of the pending apps would give.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready
from repro.sim.request import Request
from repro.util.errors import ConfigurationError

__all__ = ["StartTimeFairScheduler"]


class StartTimeFairScheduler(Scheduler):
    """Share-enforcing scheduler with arrival-free start-time tags.

    Parameters
    ----------
    n_apps:
        Number of applications.
    beta:
        Bandwidth fractions, one per app; must sum to 1.  Zero shares
        are allowed (such an app is served only when no one else has
        pending requests).
    arrival_coupled:
        If True, use the *original* DSTF tag rule
        ``S_i = max(S_{i-1}, V(arrival)) + 1/beta`` that forfeits unused
        credit (kept for the enforcement-mechanism ablation experiment).
    """

    name = "stf"

    def __init__(
        self,
        n_apps: int,
        beta,
        *,
        arrival_coupled: bool = False,
    ) -> None:
        super().__init__(n_apps)
        self.arrival_coupled = arrival_coupled
        self._tags: list[float] = [0.0] * n_apps
        #: every app as (tag, app_id), ascending: the service order
        self._order: list[tuple[float, int]] = [(0.0, a) for a in range(n_apps)]
        self._virtual_now = 0.0
        self._beta = np.ones(n_apps) / n_apps
        # a zero-share app pays an effectively infinite stride, pushing it
        # behind everyone with a real share (pure best-effort service)
        self._strides: list[float] = [float(n_apps)] * n_apps
        self.update_shares(beta)

    # ------------------------------------------------------------------
    def update_shares(self, beta) -> None:
        """Install a new share vector (re-partitioning, Sec. IV-C)."""
        b = np.asarray(beta, dtype=float)
        if b.shape != (self.n_apps,):
            raise ConfigurationError(
                f"beta must have shape ({self.n_apps},), got {b.shape}"
            )
        if np.any(b < 0) or not np.isclose(b.sum(), 1.0, atol=1e-6):
            raise ConfigurationError(f"beta must be >= 0 and sum to 1, got {b}")
        self._beta = b.copy()
        self._strides = [
            1.0 / share if share > 0 else 1e18 for share in self._beta
        ]

    @property
    def beta(self) -> np.ndarray:
        return self._beta.copy()

    @property
    def tags(self) -> np.ndarray:
        """Current virtual start-time tags (copy, one per app)."""
        return np.array(self._tags)

    # ------------------------------------------------------------------
    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        queues = self.queues
        first: int | None = None
        if channel is None:
            for _tag, app_id in self._order:
                q = queues[app_id]
                if q:
                    if first is None:
                        first = app_id
                    for req in q:
                        if ready(req):
                            self._advance_tag(app_id)
                            if req is q[0] and self._chan_index is None:
                                self.total_queued -= 1  # head-take, no index
                                return q.popleft()
                            return self._take(req)
            if first is None:
                return None
            # nothing is bank-ready: serve the smallest-tag app's head
            self._advance_tag(first)
            return self._take(queues[first][0])
        chan_pending = self._channel_index()[0]
        for _tag, app_id in self._order:
            if chan_pending[app_id].get(channel, 0):
                if first is None:
                    first = app_id
                req = self._oldest_ready(app_id, ready, channel)
                if req is not None:
                    self._advance_tag(app_id)
                    return self._take(req)
        if first is None:
            return None
        self._advance_tag(first)
        return self._pop_head(first, channel)

    def _advance_tag(self, app_id: int) -> None:
        stride = self._strides[app_id]
        tags = self._tags
        old = tags[app_id]
        if self.arrival_coupled:
            # original DSTF: credit from idle periods is forfeited
            tag = max(old, self._virtual_now) + stride
        else:
            # the paper's modification: tags only depend on service received
            tag = old + stride
        tags[app_id] = tag
        self._order.remove((old, app_id))
        bisect.insort(self._order, (tag, app_id))
        if tag - stride > self._virtual_now:
            self._virtual_now = tag - stride
