"""PAR-BS-style batch scheduler (Mutlu & Moscibroda, ISCA'08) -- lite.

One of the heuristic schedulers the paper positions itself against
(Sec. II-A2 / VII): Parallelism-Aware Batch Scheduling groups the oldest
outstanding requests into a *batch*, serves the whole batch before any
newer request (starvation freedom), and ranks applications within the
batch shortest-job-first (fewest marked requests first) to preserve each
app's bank-level parallelism and finish light apps quickly.

This "lite" model keeps the two defining mechanisms -- batching and
SJF-within-batch ranking -- and drops DRAM-command-level details that
our channel model already abstracts (per-bank ranking hints are replaced
by the engine's bank-readiness probe).

The interesting contrast with the paper's derived schemes: PAR-BS
improves fairness *and* throughput over FCFS without targeting any
explicit objective -- so it lands between No_partitioning and the
derived optimum on every metric (see the extension experiment).
"""

from __future__ import annotations

from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready, _oldest_passing
from repro.sim.request import Request
from repro.util.errors import ConfigurationError

__all__ = ["PARBSScheduler"]


class PARBSScheduler(Scheduler):
    """Batching + shortest-job-first-within-batch.

    Parameters
    ----------
    n_apps:
        Number of applications.
    marking_cap:
        Maximum requests *per application* marked into one batch
        (PAR-BS's ``Marking-Cap``; 5 in the original paper).
    """

    name = "parbs"

    def __init__(self, n_apps: int, marking_cap: int = 5) -> None:
        super().__init__(n_apps)
        if marking_cap < 1:
            raise ConfigurationError("marking_cap must be >= 1")
        self.marking_cap = marking_cap
        #: seqs of the current batch's requests still queued (select
        #: discards each one it serves, so empty = batch done)
        self._batch: set[int] = set()
        #: app ids by rank for the current batch, the app served first
        #: first; rebuilt when a batch forms
        self._order: list[int] = list(range(n_apps))
        self.n_batches = 0

    # ------------------------------------------------------------------
    def _form_batch(self) -> None:
        """Mark the oldest ``marking_cap`` requests of every app and rank
        apps by their marked-request count (SJF)."""
        counts = [0] * self.n_apps
        self._batch.clear()
        for app_id, q in enumerate(self.queues):
            for req in list(q)[: self.marking_cap]:
                self._batch.add(req.seq)
                counts[app_id] += 1
        self._order = sorted(range(self.n_apps), key=lambda a: (counts[a], a))
        self.n_batches += 1

    # ------------------------------------------------------------------
    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        """Serve the least ``(not marked, rank, enqueued, seq)`` ready
        request, else the least of all: marked ready requests in rank
        order, then unmarked ready ones, then marked and any requests,
        each pass stopping at the first app that has one."""
        if not self.has_pending(channel):
            return None
        batch = self._batch
        if not batch:
            self._form_batch()

        def marked_ready(req: Request) -> bool:
            return req.seq in batch and ready(req)

        def unmarked_ready(req: Request) -> bool:
            # reached only when no marked request on the channel is
            # ready, so those are not probed again
            return req.seq not in batch and ready(req)

        def marked(req: Request) -> bool:
            return req.seq in batch

        queues = self.queues
        for ok in (marked_ready, unmarked_ready, marked, _always_ready):
            for app_id in self._order:
                chosen = _oldest_passing(queues[app_id], channel, ok)
                if chosen is not None:
                    batch.discard(chosen.seq)
                    return self._take(chosen)
        return None  # pragma: no cover - has_pending guarantees a request
