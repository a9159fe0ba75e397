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
``beta`` remain numpy views for callers.
"""

from __future__ import annotations

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
        if channel is None:
            pending = [a for a in range(self.n_apps) if queues[a]]
        else:
            chan_pending = self._channel_index()[0]
            pending = [
                a
                for a in range(self.n_apps)
                if chan_pending[a].get(channel, 0)
            ]
        if not pending:
            return None
        # stable sort on tags == ordering by (tag, app_id): ``pending``
        # is built in ascending app order
        pending.sort(key=self._tags.__getitem__)
        if channel is None:
            for app_id in pending:
                for req in queues[app_id]:
                    if ready(req):
                        self._advance_tag(app_id)
                        return self._take(req)
            # nothing is bank-ready: serve the smallest-tag app's head
            app_id = pending[0]
            self._advance_tag(app_id)
            return self._take(queues[app_id][0])
        for app_id in pending:
            req = self._oldest_ready(app_id, ready, channel)
            if req is not None:
                self._advance_tag(app_id)
                return self._take(req)
        app_id = pending[0]
        self._advance_tag(app_id)
        return self._pop_head(app_id, channel)

    def _advance_tag(self, app_id: int) -> None:
        stride = self._strides[app_id]
        tags = self._tags
        if self.arrival_coupled:
            # original DSTF: credit from idle periods is forfeited
            tag = max(tags[app_id], self._virtual_now) + stride
            tags[app_id] = tag
        else:
            # the paper's modification: tags only depend on service received
            tag = tags[app_id] + stride
            tags[app_id] = tag
        if tag - stride > self._virtual_now:
            self._virtual_now = tag - stride
