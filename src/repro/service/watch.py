"""Binds the :mod:`repro.watch` layer into the advisor service.

One :class:`ServiceWatch` per :class:`~repro.service.server.PartitionService`
composes the four watch primitives and adapts service events to them:

* every finished request feeds the SLO engine and (when anomalous) the
  flight recorder;
* every solve call feeds the per-profile ``solver:<source>`` latency
  objectives;
* every completed shadow solve, and every sampled fallback while the
  monitor holds ``degraded``, feeds the drift monitor with the
  request's normalized per-app (sim, surrogate) APC pair;
* every pushed stream epoch mirrors re-solve latency and β churn into
  the registry.

The shadow *rate* resolves here: explicit config beats the
``REPRO_SHADOW_RATE`` environment variable beats the 5% default, and
rate 0 disables sampling entirely (``ShadowSampler.try_acquire`` is
then a constant ``False``).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.watch.drift import DriftMonitor, ShadowSampler
from repro.watch.recorder import FlightRecorder
from repro.watch.slo import SLOEngine, default_slos, load_slos

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.config import ServiceConfig
    from repro.service.protocol import PartitionRequest

__all__ = ["ServiceWatch", "resolve_shadow_rate"]

#: shadow-sample this fraction of surrogate solves unless configured
DEFAULT_SHADOW_RATE = 0.05


def resolve_shadow_rate(configured: float | None) -> float:
    """Config beats ``REPRO_SHADOW_RATE`` beats the 5% default."""
    if configured is not None:
        return configured
    raw = os.environ.get("REPRO_SHADOW_RATE")
    if raw is None:
        return DEFAULT_SHADOW_RATE
    try:
        rate = float(raw)
    except ValueError:
        return DEFAULT_SHADOW_RATE
    return min(1.0, max(0.0, rate))


class ServiceWatch:
    """Per-service composition of SLO engine, drift monitor, recorder."""

    def __init__(
        self,
        config: "ServiceConfig",
        *,
        registry: obs.MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else obs.registry()
        slos = (
            load_slos(config.slo_path)
            if config.slo_path is not None
            else default_slos()
        )
        self.slo = SLOEngine(slos)
        self.sampler = ShadowSampler(
            resolve_shadow_rate(config.shadow_rate),
            max_inflight=config.shadow_max_inflight,
        )
        self.drift = DriftMonitor(
            max_mape=config.drift_max_mape,
            window=config.drift_window,
            min_samples=config.drift_min_samples,
            registry=self.registry,
        )
        self.recorder = FlightRecorder(config.recent_capacity)

    # ------------------------------------------------------------------
    # request / solve feeds
    # ------------------------------------------------------------------
    def observe_request(
        self,
        path: str,
        latency_ms: float,
        *,
        status: int,
        error: bool,
        timeout: bool,
        shed: bool,
    ) -> None:
        self.slo.record_request(path, latency_ms, error=error or timeout or shed)
        if timeout:
            self.recorder.record(
                "timeout", path=path, status=status, latency_ms=latency_ms
            )
        elif shed:
            self.recorder.record(
                "shed", path=path, status=status, latency_ms=latency_ms
            )
        elif status >= 500:
            self.recorder.record(
                "error", path=path, status=status, latency_ms=latency_ms
            )
        elif latency_ms > self.config.slow_request_ms:
            self.recorder.record(
                "slow",
                path=path,
                status=status,
                latency_ms=latency_ms,
                detail={"threshold_ms": self.config.slow_request_ms},
            )

    def observe_solve(self, source: str, latency_ms: float) -> None:
        self.slo.record_solve(source, latency_ms)

    def record_fallback(self, path: str, reason: str | None) -> None:
        self.recorder.record(
            "fallback", path=path, detail={"reason": reason or "unknown"}
        )

    # ------------------------------------------------------------------
    # shadow / drift feed
    # ------------------------------------------------------------------
    def record_shadow(
        self,
        request: "PartitionRequest",
        predicted_row: Sequence[float],
        sim_row: Sequence[float],
    ) -> dict:
        """Score one completed shadow solve; returns the drift update."""
        band = request.bandwidth
        y_pred = [float(v) / band for v in predicted_row]
        y_true = [float(v) / band for v in sim_row]
        update = self.drift.record(request.scheme, y_true, y_pred)
        if update["sample_mape"] > self.drift.max_mape:
            self.recorder.record(
                "drift",
                path="/v1/partition",
                detail={
                    "scheme": request.scheme,
                    "sample_mape": update["sample_mape"],
                    "window_mape": update["mape"],
                    "degraded": update["degraded"],
                },
            )
        return update

    # ------------------------------------------------------------------
    # stream epochs
    # ------------------------------------------------------------------
    def observe_stream_epoch(
        self, *, resolve_ms: float | None, churn: float | None
    ) -> None:
        if resolve_ms is not None:
            self.registry.histogram("control.resolve_ms").observe(resolve_ms)
        if churn is not None:
            self.registry.histogram("control.beta_churn").observe(churn)

    # ------------------------------------------------------------------
    # evaluation surfaces
    # ------------------------------------------------------------------
    def _refresh_levels(self) -> None:
        age = self.drift.age_s()
        if age is not None:
            self.slo.set_level("drift:shadow_age_s", age)

    def alerts(self) -> dict:
        self._refresh_levels()
        return self.slo.alerts()

    def slo_status(self) -> list[dict]:
        self._refresh_levels()
        return self.slo.status()

    def drift_snapshot(self) -> dict:
        snap = self.drift.snapshot()
        snap["shadow"] = self.sampler.snapshot()
        snap["auto_fallback"] = self.config.drift_auto_fallback
        return snap
