"""Configuration for the partitioning-advisor service."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for :class:`repro.service.server.PartitionService`.

    Micro-batches form from the load, not from a timer: each holds
    whatever queued up while the previous one was being solved, capped
    at ``max_batch_size``, and is solved in one vectorized numpy pass,
    so a lone request never waits for companions.
    """

    host: str = "127.0.0.1"
    port: int = 8737

    #: coalesce at most this many concurrent solves into one numpy pass
    max_batch_size: int = 64
    #: disable to solve each request individually (the naive baseline mode)
    batching: bool = True

    #: wall-clock budget per request before a 504 is returned
    request_timeout_s: float = 10.0

    # ------------------------------------------------------------------
    # scale-out serving (pre-fork workers, shared cache, shedding)
    # ------------------------------------------------------------------
    #: pre-fork worker processes; 1 keeps the classic single-process
    #: server, N > 1 runs a supervisor + N workers on one port
    workers: int = 1
    #: bind per-worker listeners with SO_REUSEPORT when the platform
    #: has it; off (or unsupported) falls back to one supervisor-bound
    #: listener handed to every forked worker
    reuse_port: bool = True
    #: bounded per-worker admission budget: arrivals beyond this many
    #: in-flight requests are shed with 429 + Retry-After; 0 disables
    max_inflight: int = 0
    #: cross-worker shared result cache (mmap seqlock hash table);
    #: None resolves to "on exactly when workers > 1"
    shared_cache: bool | None = None
    shared_cache_slots: int = 4096
    shared_cache_value_bytes: int = 1536
    #: attach an existing segment instead of creating one -- set by the
    #: supervisor when it fans the config out to workers, not a user knob
    shared_cache_name: str | None = None
    #: this process's id under a supervisor (None = single-process mode)
    worker_id: int | None = None
    #: directory where workers drop metrics snapshots for cross-worker
    #: /metrics aggregation (supervisor-managed in multi-worker mode)
    runtime_dir: str | None = None
    #: seconds between background flushes of a worker's metrics snapshot
    metrics_sync_s: float = 1.0
    #: supervisor crash-restart backoff (doubles per consecutive crash)
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 5.0

    #: content-addressed result caching (memory LRU + optional disk)
    cache: bool = True
    cache_capacity: int = 4096
    #: layer a persistent repro.util.cache.SimCache under the LRU
    disk_cache: bool = False

    #: directory holding the surrogate ``model.json`` artifact; None
    #: resolves repro.surrogate.artifact.default_surrogate_dir() at the
    #: first surrogate-profile request (REPRO_SURROGATE_DIR aware)
    surrogate_dir: str | None = None
    #: when set, only an artifact whose sweep digest matches may serve
    #: (everything else counts as a fallback to the sim path)
    surrogate_digest: str | None = None

    #: cap on concurrently open /v1/stream sessions (overflow -> 429)
    max_sessions: int = 256
    #: stream sessions idle longer than this are evicted lazily
    session_idle_s: float = 300.0
    #: per-session bounded history of epoch updates (memory cap)
    session_history: int = 64

    # ------------------------------------------------------------------
    # watch layer (SLOs, drift shadow-sampling, flight recorder)
    # ------------------------------------------------------------------
    #: fraction of surrogate-served solves shadow-resolved through the
    #: sim path for online drift scoring; None reads REPRO_SHADOW_RATE
    #: (default 0.05).  0 disables shadow-sampling entirely.
    shadow_rate: float | None = None
    #: cap on concurrently-running shadow solves -- a due sample that
    #: finds the cap full is skipped and counted, never queued
    shadow_max_inflight: int = 2
    #: bounded per-scheme window of shadow samples: one per shadowed
    #: request, holding its per-app (sim, surrogate) pairs
    drift_window: int = 128
    #: shadow samples (requests, not per-app values) required in a
    #: scheme's window before the online MAPE may flip the degraded flag
    drift_min_samples: int = 8
    #: online MAPE gate; defaults to the artifact's fit-time gate
    #: (QualityThresholds.max_mape = 5%)
    drift_max_mape: float = 0.05
    #: when degraded, route surrogate-profile solves to the sim path
    #: until the online score recovers
    drift_auto_fallback: bool = True
    #: requests slower than this land in the flight recorder as "slow"
    slow_request_ms: float = 250.0
    #: flight-recorder ring capacity (GET /v1/debug/recent)
    recent_capacity: int = 256
    #: JSON file of SLO objects overriding repro.watch.slo.default_slos
    slo_path: str | None = None

    #: reject request bodies larger than this (bytes)
    max_body_bytes: int = 1 << 20
    #: per-request cap on /v1/partition/batch fan-in
    max_requests_per_call: int = 1024
    #: ring-buffer size for the latency percentiles in /metrics
    latency_window: int = 2048
    #: seconds to let in-flight requests finish during shutdown
    shutdown_grace_s: float = 5.0

    @property
    def shared_cache_enabled(self) -> bool:
        """Config beats the default of "shared exactly when multi-worker"."""
        if self.shared_cache is not None:
            return self.shared_cache
        return self.workers > 1 or self.shared_cache_name is not None

    def __post_init__(self) -> None:
        check_positive("max_batch_size", self.max_batch_size)
        check_positive("request_timeout_s", self.request_timeout_s)
        check_positive("workers", self.workers)
        if self.max_inflight < 0:
            raise ConfigurationError(
                f"max_inflight must be >= 0 (0 disables), got {self.max_inflight}"
            )
        check_positive("shared_cache_slots", self.shared_cache_slots)
        check_positive("shared_cache_value_bytes", self.shared_cache_value_bytes)
        check_positive("metrics_sync_s", self.metrics_sync_s)
        check_positive("restart_backoff_s", self.restart_backoff_s)
        check_positive("restart_backoff_max_s", self.restart_backoff_max_s)
        check_positive("cache_capacity", self.cache_capacity)
        check_positive("max_sessions", self.max_sessions)
        check_positive("session_idle_s", self.session_idle_s)
        check_positive("session_history", self.session_history)
        if self.shadow_rate is not None and not (0.0 <= self.shadow_rate <= 1.0):
            raise ConfigurationError(
                f"shadow_rate must be in [0, 1], got {self.shadow_rate}"
            )
        check_positive("shadow_max_inflight", self.shadow_max_inflight)
        check_positive("drift_window", self.drift_window)
        check_positive("drift_min_samples", self.drift_min_samples)
        check_positive("drift_max_mape", self.drift_max_mape)
        check_positive("slow_request_ms", self.slow_request_ms)
        check_positive("recent_capacity", self.recent_capacity)
        check_positive("max_body_bytes", self.max_body_bytes)
        check_positive("max_requests_per_call", self.max_requests_per_call)
        check_positive("latency_window", self.latency_window)
        if self.shutdown_grace_s < 0:
            raise ConfigurationError("shutdown_grace_s must be >= 0")
        if not (0 <= self.port <= 65535):
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
