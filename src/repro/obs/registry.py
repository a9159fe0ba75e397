"""Process-wide metrics registry: counters, gauges, histograms.

Three instrument kinds, all label-aware:

* :class:`Counter`   -- monotonically increasing count (requests, hits);
* :class:`Gauge`     -- last-write-wins level (workers, queue depth);
* :class:`Histogram` -- exact count/sum/min/max plus a bounded sliding
  window of recent observations for percentiles (the same recent-window
  semantics the service's latency ring already uses: an operator tuning
  knobs wants the *current* distribution, and the bound keeps a
  long-lived process flat).

A *series* is one (name, label-set) pair.  The number of label-sets per
metric name is capped (default 128): unbounded label values -- a
client-controlled URL path, a per-request id -- are the classic way a
metrics process eats its host, so crossing the cap raises
:class:`CardinalityError` instead of growing silently.  Label *values*
are stringified; label *names* must be identifiers.

Unlike spans (see :mod:`repro.obs.tracing`), instruments stay live even
when ``REPRO_OBS=off``: they are a handful of attribute writes per
update, are never on a simulator hot loop (hot paths accumulate locally
and flush once), and operational surfaces like the service's
``/metrics`` endpoint must keep working regardless of tracing state.

Thread-safety: series creation is locked, and every instrument carries
its own lock so concurrent updates from worker threads (or a forked
pool's parent-side callbacks) never lose increments.  The locks are
uncontended in the common single-threaded case and each update is a
handful of attribute writes, so the cost stays negligible next to the
work being measured.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "nearest_rank_percentile",
]


class CardinalityError(RuntimeError):
    """A metric name exceeded its allowed number of label-sets."""


def nearest_rank_percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class Counter:
    """Monotonic counter."""

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins level."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Exact aggregates + a bounded window of recent observations."""

    __slots__ = ("count", "sum", "min", "max", "_window", "_lock")
    kind = "histogram"

    def __init__(self, reservoir: int = 1024) -> None:
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._window: deque[float] = deque(maxlen=reservoir)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._window.append(value)

    def percentile(self, q: float) -> float:
        with self._lock:
            window = sorted(self._window)
        return nearest_rank_percentile(window, q)

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self.count, self.sum
            low, high = self.min, self.max
            window = sorted(self._window)
        return {
            "count": count,
            "sum": total,
            "min": low if count else 0.0,
            "max": high if count else 0.0,
            "mean": total / count if count else 0.0,
            "window": len(window),
            "p50": nearest_rank_percentile(window, 0.50),
            "p90": nearest_rank_percentile(window, 0.90),
            "p99": nearest_rank_percentile(window, 0.99),
        }


class MetricsRegistry:
    """Named, labelled instruments with bounded per-name cardinality.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the instrument kind for that name and later calls with a
    different kind raise ``ValueError`` (one name, one meaning).
    """

    def __init__(self, max_label_sets: int = 128) -> None:
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self.max_label_sets = max_label_sets
        self._series: dict[str, dict[tuple, object]] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, labels: dict, factory):
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series = self._series.get(name)
        if series is not None:
            instrument = series.get(key)
            if instrument is not None:
                if self._kinds[name] != kind:
                    raise ValueError(
                        f"metric {name!r} is a {self._kinds[name]}, "
                        f"requested as {kind}"
                    )
                return instrument
        with self._lock:
            known = self._kinds.setdefault(name, kind)
            if known != kind:
                raise ValueError(
                    f"metric {name!r} is a {known}, requested as {kind}"
                )
            series = self._series.setdefault(name, {})
            instrument = series.get(key)
            if instrument is None:
                if len(series) >= self.max_label_sets:
                    raise CardinalityError(
                        f"metric {name!r} already has {len(series)} label-sets "
                        f"(cap {self.max_label_sets}); refusing to create "
                        f"series for labels {dict(key)!r} -- use a bounded "
                        f"label value (e.g. bucket rare values as 'other')"
                    )
                instrument = series[key] = factory()
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(self, name: str, reservoir: int = 1024, **labels) -> Histogram:
        return self._get(
            name, "histogram", labels, lambda: Histogram(reservoir)
        )

    # ------------------------------------------------------------------
    def series(self) -> list[tuple[str, str, dict, object]]:
        """All series as (name, kind, labels, instrument), sorted."""
        out = []
        with self._lock:
            for name in sorted(self._series):
                kind = self._kinds[name]
                for key in sorted(self._series[name]):
                    out.append((name, kind, dict(key), self._series[name][key]))
        return out

    def snapshot(self) -> dict:
        """JSON-able dump: {name: {kind, series: [{labels, value}]}}."""
        out: dict[str, dict] = {}
        for name, kind, labels, instrument in self.series():
            entry = out.setdefault(name, {"kind": kind, "series": []})
            entry["series"].append(
                {"labels": labels, "value": instrument.snapshot()}
            )
        return out

    def get_value(self, name: str, **labels) -> object | None:
        """Current value of one series, or None if it does not exist."""
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series = self._series.get(name)
        if series is None or key not in series:
            return None
        return series[key].snapshot()

    def clear(self) -> None:
        """Drop every series (test isolation; not for production use)."""
        with self._lock:
            self._series.clear()
            self._kinds.clear()
