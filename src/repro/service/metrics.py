"""Operational counters for the advisor service (the ``/metrics`` body).

Everything here runs on the event loop thread, so plain ints and
deques are safe without locks.  Latency percentiles are computed over
a bounded ring buffer per endpoint: recent-window percentiles are what
an operator tuning the batching knobs actually wants, and the memory
bound keeps a long-lived server flat.

Since the :mod:`repro.obs` unification, every observation is mirrored
into the process-wide :class:`~repro.obs.registry.MetricsRegistry`
(``service.requests``, ``service.errors``, ``service.timeouts``,
``service.latency_ms``, ``service.batches``, ...), so the same series
show up in the registry snapshot alongside engine, runner and cache
telemetry.  The ``/metrics`` JSON keeps its original field names
-- the snapshot shape here is an API.  Both the ``endpoints`` section
and the registry key a request by the same bounded label: its route
(stream session ids become ``{id}``, query strings are dropped).  Every
route the server answers has its own label; unknown paths are client
controlled, so only a small cap of them get labels and the rest count
as ``other``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.obs.registry import nearest_rank_percentile

__all__ = ["EndpointStats", "ServiceMetrics", "ROUTE_LABELS"]

#: the label of every route the server answers; never capped
ROUTE_LABELS = frozenset({
    "/healthz",
    "/metrics",
    "/v1/partition",
    "/v1/partition/batch",
    "/v1/qos",
    "/v1/surrogate/reload",
    "/v1/debug/recent",
    "/v1/debug/slo",
    "/v1/debug/drift",
    "/v1/stream/open",
    "/v1/stream/{id}",
    "/v1/stream/{id}/counters",
})
#: at most this many labels for unknown paths before bucketing as "other"
_MAX_PATH_LABELS = 16


@dataclass
class EndpointStats:
    """Request counters + a latency ring buffer for one endpoint.

    ``timeout=True`` implies an error: a timed-out request increments
    both ``timeouts`` and ``errors`` exactly once, whether or not the
    caller also passes ``error=True`` (it does -- a 504 status is an
    error status; the old contract double-counted nothing but silently
    *under*-counted errors for callers that passed only
    ``timeout=True``).

    ``shed=True`` marks a load-shed request (HTTP 429).  Every flag
    combination counts each counter exactly once: a shed request whose
    client also timed out waiting (``shed=True, timeout=True``) is one
    request, one shed, one timeout, one error -- never two errors.
    """

    window: int = 2048
    requests: int = 0
    errors: int = 0
    timeouts: int = 0
    sheds: int = 0
    latencies_ms: deque = field(default_factory=deque)

    def observe(
        self,
        latency_ms: float,
        *,
        error: bool = False,
        timeout: bool = False,
        shed: bool = False,
    ) -> None:
        self.requests += 1
        if timeout:
            self.timeouts += 1
        if shed:
            self.sheds += 1
        if error or timeout or shed:
            self.errors += 1
        self.latencies_ms.append(latency_ms)
        while len(self.latencies_ms) > self.window:
            self.latencies_ms.popleft()

    def snapshot(self) -> dict:
        window = sorted(self.latencies_ms)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "sheds": self.sheds,
            "latency_ms": {
                "window": len(window),
                "mean": sum(window) / len(window) if window else 0.0,
                "p50": nearest_rank_percentile(window, 0.50),
                "p90": nearest_rank_percentile(window, 0.90),
                "p99": nearest_rank_percentile(window, 0.99),
                "max": window[-1] if window else 0.0,
            },
        }

    def dump(self) -> dict:
        """Counters plus the *raw* latency window, for cross-worker
        aggregation: percentiles cannot be merged, samples can."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "sheds": self.sheds,
            "latencies_ms": [round(v, 4) for v in self.latencies_ms],
        }


class ServiceMetrics:
    """All service counters, snapshotted by ``GET /metrics``."""

    def __init__(
        self,
        latency_window: int = 2048,
        registry: obs.MetricsRegistry | None = None,
    ) -> None:
        self._latency_window = latency_window
        self._started = time.monotonic()
        #: wall-clock start (dashboards detect restarts from a jump)
        self.started_unix = time.time()
        #: version / git-revision / config-digest info labels; the
        #: server fills this at construction (see set_build_info)
        self.build_info: dict[str, str] = {}
        self.registry = registry if registry is not None else obs.registry()
        self.registry.gauge("process.start_time_unix").set(self.started_unix)
        #: keyed by the bounded path label (see _path_label)
        self.endpoints: dict[str, EndpointStats] = {}
        #: per-engine solve latency ("analytic" / "surrogate" / "sim");
        #: label cardinality is bounded by the PROFILES constant
        self.solvers: dict[str, EndpointStats] = {}
        #: the labels handed out: every route, then unknown paths
        self._path_labels: set[str] = set(ROUTE_LABELS)
        # Registry instruments resolved once instead of re-hashing their
        # labels on every call: per path label (bounded by the routes
        # plus _MAX_PATH_LABELS), per solve source (bounded by PROFILES) and
        # for the batcher, each made on first use as the registry would.
        self._path_series: dict[str, tuple[obs.Counter, obs.Histogram]] = {}
        self._solve_ms: dict[str, obs.Histogram] = {}
        self._batch_series: tuple | None = None
        # micro-batcher counters
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_size = 0

    def endpoint(self, path: str) -> EndpointStats:
        stats = self.endpoints.get(path)
        if stats is None:
            stats = self.endpoints[path] = EndpointStats(window=self._latency_window)
        return stats

    def _path_label(self, path: str) -> str:
        """A bounded label for ``path``: its route, or past the cap on
        unknown paths, 'other'."""
        if path in self._path_labels:
            return path
        route = path.partition("?")[0]
        if route.startswith("/v1/stream/") and route != "/v1/stream/open":
            route = (
                "/v1/stream/{id}/counters"
                if route.endswith("/counters")
                else "/v1/stream/{id}"
            )
        if route in self._path_labels:
            return route
        if len(self._path_labels) < len(ROUTE_LABELS) + _MAX_PATH_LABELS:
            self._path_labels.add(route)
            return route
        return "other"

    def set_build_info(self, **info: str) -> None:
        """Attach build/config info labels (version, revision, digest).

        Exported as a Prometheus-style info gauge: constant value 1,
        the payload lives in the labels, so dashboards can join on it
        to detect version/config skew across a fleet.
        """
        self.build_info.update({k: str(v) for k, v in info.items()})
        self.registry.gauge("process.build_info", **self.build_info).set(1.0)

    def observe_request(
        self,
        path: str,
        latency_ms: float,
        *,
        error: bool = False,
        timeout: bool = False,
        shed: bool = False,
    ) -> None:
        label = self._path_label(path)
        self.endpoint(label).observe(
            latency_ms, error=error, timeout=timeout, shed=shed
        )
        reg = self.registry
        series = self._path_series.get(label)
        if series is None:
            series = self._path_series[label] = (
                reg.counter("service.requests", path=label),
                reg.histogram(
                    "service.latency_ms",
                    reservoir=self._latency_window,
                    path=label,
                ),
            )
        requests, latency = series
        requests.inc()
        # failures are rare: their counters keep the registry lookup
        if timeout:
            reg.counter("service.timeouts", path=label).inc()
        if shed:
            reg.counter("service.sheds", path=label).inc()
        if error or timeout or shed:
            reg.counter("service.errors", path=label).inc()
        latency.observe(latency_ms)

    def observe_solve(self, source: str, latency_ms: float) -> None:
        """Record one solve call's latency for engine ``source``.

        One observation per solve *call*: a micro-batched surrogate
        group counts once however many requests it stacked, while the
        sim path (which solves per request) counts per request -- the
        conservative direction for the ``speedup_vs_sim`` ratio.
        """
        stats = self.solvers.get(source)
        if stats is None:
            stats = self.solvers[source] = EndpointStats(
                window=self._latency_window
            )
            self._solve_ms[source] = self.registry.histogram(
                "service.solve_ms", reservoir=self._latency_window, source=source
            )
        stats.observe(latency_ms)
        self._solve_ms[source].observe(latency_ms)

    def observe_stream(self, event: str) -> None:
        """Count one stream-session lifecycle event.

        ``event`` is one of the fixed literals ``open`` / ``push`` /
        ``change`` / ``close`` / ``reject`` (server-controlled, so the
        label cardinality is bounded by construction).
        """
        self.registry.counter("service.stream_events", event=event).inc()

    def observe_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        self.max_batch_size = max(self.max_batch_size, size)
        if self._batch_series is None:
            reg = self.registry
            self._batch_series = (
                reg.counter("service.batches"),
                reg.counter("service.batched_requests"),
                reg.histogram("service.batch_size"),
                reg.gauge("service.max_batch_size"),
            )
        batches, batched, sizes, largest = self._batch_series
        batches.inc()
        batched.inc(size)
        sizes.observe(size)
        largest.set(self.max_batch_size)

    @property
    def uptime_s(self) -> float:
        """Seconds since this service's metrics started counting."""
        return time.monotonic() - self._started

    def _speedup_vs_sim(self) -> dict[str, float]:
        """Mean-solve-latency ratio of every engine against the sim path."""
        sim = self.solvers.get("sim")
        if sim is None or not sim.latencies_ms:
            return {}
        sim_mean = sum(sim.latencies_ms) / len(sim.latencies_ms)
        out: dict[str, float] = {}
        for source, stats in self.solvers.items():
            if source == "sim" or not stats.latencies_ms:
                continue
            mean = sum(stats.latencies_ms) / len(stats.latencies_ms)
            if mean > 0:
                out[source] = sim_mean / mean
        return out

    def snapshot(
        self, *, cache: dict | None = None, sessions: dict | None = None
    ) -> dict:
        return {
            # additive: the stream-session section (None when the
            # caller has no session manager, e.g. bare-metrics tests)
            "sessions": sessions,
            "uptime_s": self.uptime_s,
            "process": {
                "start_time_unix": self.started_unix,
                "uptime_s": self.uptime_s,
                "pid": os.getpid(),
                **self.build_info,
            },
            "endpoints": {
                path: stats.snapshot() for path, stats in sorted(self.endpoints.items())
            },
            "solvers": {
                source: stats.snapshot()
                for source, stats in sorted(self.solvers.items())
            },
            "speedup_vs_sim": self._speedup_vs_sim(),
            "batching": {
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "max_batch_size": self.max_batch_size,
                "mean_batch_size": (
                    self.batched_requests / self.batches if self.batches else 0.0
                ),
            },
            "cache": cache,
        }
