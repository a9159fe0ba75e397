"""MetricsRegistry: instruments, labels, cardinality bound, exporters."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.registry import CardinalityError, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests")
        c.inc()
        c.inc(4)
        assert reg.get_value("requests") == 5.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("requests").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("workers")
        g.set(8)
        g.set(4)
        g.add(1)
        assert reg.get_value("workers") == 5.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5
        assert snap["p50"] == pytest.approx(3.0)  # nearest-rank

    def test_histogram_window_is_bounded(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", reservoir=8)
        for v in range(100):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100  # exact aggregates survive eviction
        assert snap["window"] == 8
        assert snap["p50"] >= 92.0  # window holds only the newest values

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("hits", cache="sim") is reg.counter(
            "hits", cache="sim"
        )
        assert reg.counter("hits", cache="sim") is not reg.counter(
            "hits", cache="service"
        )

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("x")


class TestCardinality:
    def test_cap_raises_clear_error(self):
        reg = MetricsRegistry(max_label_sets=4)
        for i in range(4):
            reg.counter("requests", path=f"/p{i}")
        with pytest.raises(CardinalityError, match="cap 4"):
            reg.counter("requests", path="/one-too-many")

    def test_cap_is_per_name(self):
        reg = MetricsRegistry(max_label_sets=2)
        reg.counter("a", k="1")
        reg.counter("a", k="2")
        # a different metric name starts its own budget
        reg.counter("b", k="1")
        reg.counter("b", k="2")
        with pytest.raises(CardinalityError):
            reg.counter("b", k="3")


class TestSnapshotAndExport:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits", cache="sim").inc(3)
        snap = reg.snapshot()
        assert snap["hits"]["kind"] == "counter"
        assert snap["hits"]["series"] == [
            {"labels": {"cache": "sim"}, "value": 3.0}
        ]

    def test_global_registry_is_process_wide(self):
        obs.registry().counter("global.check").inc()
        assert obs.registry().get_value("global.check") == 1.0


class TestQuantileMath:
    """Pin the nearest-rank rule: index = round(q * (n - 1)).

    These values are load-bearing for dashboards: the exporter's
    ``quantile=`` series and the ``/metrics`` latency fields both ride
    on this rule, so a silent switch to linear interpolation (or an
    off-by-one in the rank) should fail loudly here.
    """

    def test_window_1_to_100_pins_p50_p90_p99(self):
        reg = MetricsRegistry()
        h = reg.histogram("pinned", reservoir=128)
        for v in range(1, 101):  # window = [1.0 .. 100.0]
            h.observe(float(v))
        snap = h.snapshot()
        # round(0.5 * 99) = 50 -> 51.0 (half-even), round(0.9 * 99) = 89
        # -> 90.0, round(0.99 * 99) = 98 -> 99.0
        assert snap["p50"] == 51.0
        assert snap["p90"] == 90.0
        assert snap["p99"] == 99.0

    def test_extremes_clamp_to_window_ends(self):
        reg = MetricsRegistry()
        h = reg.histogram("pinned")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 3.0

    def test_single_observation_is_every_percentile(self):
        reg = MetricsRegistry()
        h = reg.histogram("pinned")
        h.observe(7.5)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == 7.5

    def test_empty_window_reports_zero(self):
        reg = MetricsRegistry()
        assert reg.histogram("pinned").percentile(0.5) == 0.0
