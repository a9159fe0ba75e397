"""repro.obs -- unified telemetry: metrics registry + span tracing.

One stdlib-only layer observing every tier of the system the same way:

* a process-wide :class:`~repro.obs.registry.MetricsRegistry` of named,
  labelled counters/gauges/histograms (``obs.registry()``);
* span tracing (:func:`~repro.obs.tracing.span` context manager /
  decorator) recording wall+CPU time per phase into a bounded ring
  (``obs.tracer()``), nesting correctly across threads and asyncio
  tasks via ``contextvars``;
* a Chrome trace-event exporter (Perfetto-loadable), plus the per-run
  provenance :class:`~repro.obs.manifest.RunManifest`;
* the ``repro-trace`` CLI summarizing a trace into a per-phase table.

Environment:

``REPRO_OBS``
    ``off``/``0``/``false`` disables span recording entirely (the
    no-op fast path); anything else (default) leaves it on.
``REPRO_OBS_SAMPLE``
    Span sampling rate -- ``0.25`` or ``1/4`` keeps every 4th span
    (deterministic counter stride, no RNG).  Default: keep all.
``REPRO_OBS_RING``
    Span ring-buffer capacity (default 65536).

Metrics instruments stay live regardless of ``REPRO_OBS`` -- they are
cheap, bounded, and operational endpoints (the service's ``/metrics``)
depend on them; only tracing has the off switch.  Hot loops never
touch either directly: they accumulate plain locals and flush once per
run (see ``repro.sim.engine``), which is what keeps the instrumented
engine within noise of ``REPRO_OBS=off`` (enforced by
``benchmarks/bench_obs.py``).
"""

from __future__ import annotations

from repro.obs.exporters import chrome_trace, write_chrome_trace
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.registry import (
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    STATE,
    TRACER,
    SpanRecord,
    Tracer,
    current_span_id,
    span,
)

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunManifest",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "configure",
    "current_span_id",
    "enabled",
    "git_revision",
    "registry",
    "reset",
    "span",
    "tracer",
    "write_chrome_trace",
]

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-wide span ring buffer."""
    return TRACER


def enabled() -> bool:
    """Is span recording currently on?"""
    return STATE.enabled


# benchmarks/bench_obs.py and examples/trace_quickstart.py switch
# tracing with this; the programs read REPRO_OBS from the environment.
def configure(  # reprolint: disable=dead-code
    *,
    enabled: bool | None = None,
    sample: float | None = None,
) -> None:
    """Override the environment-derived tracing switches at runtime.

    ``sample`` is a keep-rate in (0, 1]; it is converted to the same
    deterministic counter stride ``REPRO_OBS_SAMPLE`` uses.
    """
    if enabled is not None:
        STATE.enabled = bool(enabled)
    if sample is not None:
        if not (0.0 < sample <= 1.0):
            raise ValueError(f"sample must be in (0, 1], got {sample}")
        STATE.stride = max(1, round(1.0 / sample))


def reset() -> None:
    """Clear all series and spans and re-read the environment.

    Test isolation helper: the registry and tracer are process-global,
    so suites snapshotting absolute values call this first.
    """
    _REGISTRY.clear()
    TRACER.clear()
    STATE.reload_env()
