"""TCM-style cluster scheduler (Kim et al., MICRO'10) -- lite.

Thread Cluster Memory scheduling, the second heuristic baseline of the
paper's related work (Sec. VII): applications are periodically clustered
into a *latency-sensitive* group (low memory intensity; always
prioritized -- they barely consume bandwidth but suffer most from
queueing) and a *bandwidth-sensitive* group (the rest; their relative
priority is periodically *shuffled* so no heavy app is persistently
last, trading a little throughput for fairness).

This "lite" model keeps the defining mechanisms -- intensity-based
clustering, strict latency-cluster priority, periodic rank shuffling in
the bandwidth cluster -- with a deterministic rotation in place of TCM's
insertion-shuffle, and clustering by measured arrival rates over the
last epoch in place of MPKI counters.
"""

from __future__ import annotations

from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready, _oldest_passing
from repro.sim.request import Request
from repro.util.errors import ConfigurationError

__all__ = ["TCMScheduler"]


class TCMScheduler(Scheduler):
    """Two-cluster scheduling with periodic shuffling.

    Parameters
    ----------
    n_apps:
        Number of applications.
    cluster_fraction:
        Fraction of total observed traffic below which (cumulating from
        the lightest app up) apps form the latency-sensitive cluster
        (TCM's ``ClusterThresh``; 0.10-0.15 typical).
    epoch_requests:
        Re-cluster after this many served requests (stands in for TCM's
        quantum); the bandwidth cluster's ranks rotate every epoch too.
    """

    name = "tcm"

    def __init__(
        self,
        n_apps: int,
        cluster_fraction: float = 0.15,
        epoch_requests: int = 200,
    ) -> None:
        super().__init__(n_apps)
        if not (0.0 <= cluster_fraction <= 1.0):
            raise ConfigurationError("cluster_fraction must be in [0, 1]")
        if epoch_requests < 1:
            raise ConfigurationError("epoch_requests must be >= 1")
        self.cluster_fraction = cluster_fraction
        self.epoch_requests = epoch_requests
        self._arrivals_epoch = [0] * n_apps
        self._since_recluster = 0
        self._shuffle_offset = 0
        #: latency-sensitive cluster membership
        self.latency_cluster: set[int] = set(range(n_apps))
        #: app ids by rank, the app served first first; rebuilt at each
        #: recluster
        self._order = list(range(n_apps))
        self.n_reclusters = 0

    # ------------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> None:
        super().enqueue(request, now)
        self._arrivals_epoch[request.app_id] += 1

    def _recluster(self) -> None:
        """Rebuild clusters from the epoch's arrival counts and rotate
        the bandwidth cluster's ranks."""
        total = sum(self._arrivals_epoch)
        order = sorted(
            range(self.n_apps), key=lambda a: (self._arrivals_epoch[a], a)
        )
        self.latency_cluster = set()
        acc = 0
        for app in order:
            if total == 0 or (acc + self._arrivals_epoch[app]) <= (
                self.cluster_fraction * total
            ):
                self.latency_cluster.add(app)
                acc += self._arrivals_epoch[app]
            else:
                break
        bandwidth = [a for a in order if a not in self.latency_cluster]
        # deterministic rotation = TCM's periodic shuffle (fairness)
        self._shuffle_offset += 1
        if bandwidth:
            k = self._shuffle_offset % len(bandwidth)
            bandwidth = bandwidth[k:] + bandwidth[:k]
        self._order = [a for a in order if a in self.latency_cluster] + bandwidth
        self._arrivals_epoch = [0] * self.n_apps
        self._since_recluster = 0
        self.n_reclusters += 1

    # ------------------------------------------------------------------
    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        """Serve the least ``(rank, enqueued, seq)`` ready request, else
        the least of all: apps in rank order, stopping at the first app
        that has one."""
        if self._since_recluster >= self.epoch_requests:
            self._recluster()
        queues = self.queues
        for ok in (ready, _always_ready):
            for app_id in self._order:
                chosen = _oldest_passing(queues[app_id], channel, ok)
                if chosen is not None:
                    self._since_recluster += 1
                    return self._take(chosen)
        return None
