"""SLO engine: burn-rate math, multi-window alerting, config loading."""

from __future__ import annotations

import json

import pytest

from repro.util.errors import ConfigurationError
from repro.watch import SLO, SLOEngine, WindowedCounts, default_slos
from repro.watch.slo import load_slos, slos_from_json


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def avail_slo(**overrides) -> SLO:
    base = dict(
        name="t.availability", signal="availability", selector="/v1/t",
        objective=0.999,
    )
    base.update(overrides)
    return SLO(**base)


# ----------------------------------------------------------------------
# SLO declaration and validation
# ----------------------------------------------------------------------
class TestSLOValidation:
    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown signal"):
            avail_slo(signal="vibes")

    def test_objective_must_be_a_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError, match="objective"):
                avail_slo(objective=bad)

    def test_latency_needs_threshold(self):
        with pytest.raises(ConfigurationError, match="threshold_ms"):
            avail_slo(signal="latency")

    def test_staleness_needs_max_age(self):
        with pytest.raises(ConfigurationError, match="max_age_s"):
            avail_slo(signal="staleness")

    def test_windows_must_be_ordered(self):
        with pytest.raises(ConfigurationError, match="fast_window_s"):
            avail_slo(fast_window_s=3600.0, slow_window_s=300.0)

    def test_selector_matching(self):
        assert avail_slo(selector="*").matches("/anything")
        assert avail_slo(selector="/v1/stream/*").matches("/v1/stream/abc")
        assert not avail_slo(selector="/v1/stream/*").matches("/v1/qos")
        assert avail_slo(selector="/v1/t").matches("/v1/t")
        assert not avail_slo(selector="/v1/t").matches("/v1/t2")


# ----------------------------------------------------------------------
# windowed counts
# ----------------------------------------------------------------------
class TestWindowedCounts:
    def test_counts_split_good_and_bad(self):
        clock = FakeClock()
        w = WindowedCounts(3600.0, clock=clock)
        for _ in range(3):
            w.record(True)
        w.record(False)
        assert w.counts(300.0) == (3.0, 1.0)

    def test_old_events_age_out_of_the_window(self):
        clock = FakeClock()
        w = WindowedCounts(3600.0, clock=clock)
        w.record(False)
        clock.advance(301.0)
        w.record(True)
        assert w.counts(300.0) == (1.0, 0.0)  # the error left the window
        assert w.counts(3600.0) == (1.0, 1.0)  # ... but not the horizon

    def test_memory_is_bounded_by_horizon(self):
        clock = FakeClock()
        w = WindowedCounts(100.0, bucket_s=10.0, clock=clock)
        for _ in range(1000):
            w.record(True)
            clock.advance(1.0)
        assert len(w._buckets) <= 100 / 10 + 1

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ConfigurationError):
            WindowedCounts(0.0)


# ----------------------------------------------------------------------
# burn-rate evaluation
# ----------------------------------------------------------------------
class TestBurnRates:
    def engine(self, *slos):
        clock = FakeClock()
        return SLOEngine(slos, clock=clock), clock

    def test_all_good_is_ok(self):
        engine, _ = self.engine(avail_slo())
        for _ in range(100):
            engine.record_request("/v1/t", 1.0, error=False)
        (st,) = engine.status()
        assert st["state"] == "ok"
        assert st["fast"]["burn"] == 0.0
        assert st["breached_for_s"] == 0.0

    def test_burn_is_error_rate_over_budget(self):
        engine, _ = self.engine(avail_slo())
        for i in range(20):
            engine.record_request("/v1/t", 1.0, error=(i % 2 == 0))
        (st,) = engine.status()
        # error rate 0.5 against a 0.001 budget: burn 500 in both windows
        assert st["fast"]["burn"] == pytest.approx(500.0)
        assert st["slow"]["burn"] == pytest.approx(500.0)
        assert st["state"] == "page"

    def test_min_events_guard_blocks_tiny_windows(self):
        engine, _ = self.engine(avail_slo())
        for _ in range(9):  # min_events defaults to 10
            engine.record_request("/v1/t", 1.0, error=True)
        (st,) = engine.status()
        assert st["fast"]["burn"] > 14.4
        assert st["state"] == "ok"

    def test_slow_window_only_is_a_warn(self):
        engine, clock = self.engine(avail_slo())
        for _ in range(20):
            engine.record_request("/v1/t", 1.0, error=True)
        clock.advance(600.0)  # past the fast window, inside the slow one
        for _ in range(50):
            engine.record_request("/v1/t", 1.0, error=False)
        (st,) = engine.status()
        assert not st["fast"]["burning"]
        assert st["slow"]["burning"]
        assert st["state"] == "warn"

    def test_fast_window_only_is_a_warn(self):
        engine, clock = self.engine(avail_slo())
        # a long good history dilutes the slow burn below its threshold
        for _ in range(2000):
            engine.record_request("/v1/t", 1.0, error=False)
        clock.advance(600.0)
        for i in range(20):
            engine.record_request("/v1/t", 1.0, error=(i % 2 == 0))
        (st,) = engine.status()
        assert st["fast"]["burning"]
        assert not st["slow"]["burning"]
        assert st["state"] == "warn"

    def test_breached_for_tracks_the_clock(self):
        engine, clock = self.engine(avail_slo())
        for _ in range(20):
            engine.record_request("/v1/t", 1.0, error=True)
        assert engine.status()[0]["state"] == "page"
        clock.advance(120.0)
        assert engine.status()[0]["breached_for_s"] == pytest.approx(120.0)
        # recovery resets the breach clock
        clock.advance(3600.0)
        for _ in range(50):
            engine.record_request("/v1/t", 1.0, error=False)
        assert engine.status()[0]["state"] == "ok"
        assert engine.status()[0]["breached_for_s"] == 0.0

    def test_latency_slo_counts_threshold_misses_of_successes(self):
        slo = SLO(
            "t.latency", "latency", "/v1/t", objective=0.99, threshold_ms=50.0
        )
        engine, _ = self.engine(slo)
        for _ in range(10):
            engine.record_request("/v1/t", 10.0, error=False)  # good
        for _ in range(10):
            engine.record_request("/v1/t", 200.0, error=False)  # slow
        # errors never count toward the latency objective
        engine.record_request("/v1/t", 1.0, error=True)
        (st,) = engine.status()
        assert st["fast"]["total"] == 20
        assert st["fast"]["error_rate"] == pytest.approx(0.5)
        assert st["state"] == "page"

    def test_every_distinct_path_reaches_its_objectives(self):
        # paths are client controlled; past any memo of seen paths each
        # event must still feed exactly the objectives it matches
        prefix = avail_slo(name="p.availability", selector="/v1/p/*")
        engine, _ = self.engine(prefix, avail_slo())
        for i in range(200):
            engine.record_request(f"/v1/p/{i}", 1.0, error=i % 4 == 0)
            engine.record_request("/v1/t", 1.0, error=False)
        p, t = engine.status()
        assert (p["slow"]["total"], p["slow"]["bad"]) == (200, 50)
        assert (t["slow"]["total"], t["slow"]["bad"]) == (200, 0)

    def test_solver_events_route_by_source(self):
        slo = SLO(
            "s.latency", "latency", "solver:sim", objective=0.9,
            threshold_ms=100.0,
        )
        engine, _ = self.engine(slo)
        for _ in range(10):
            engine.record_solve("sim", 500.0)
            engine.record_solve("analytic", 500.0)  # different selector
        (st,) = engine.status()
        assert st["fast"]["total"] == 10

    def test_staleness_is_level_based(self):
        slo = SLO(
            "shadow.staleness", "staleness", "drift:shadow_age_s",
            max_age_s=900.0,
        )
        engine, _ = self.engine(slo)
        (st,) = engine.status()
        assert st["state"] == "ok"  # no feed yet: nothing to page on
        engine.set_level("drift:shadow_age_s", 100.0)
        assert engine.status()[0]["state"] == "ok"
        engine.set_level("drift:shadow_age_s", 1000.0)
        st = engine.status()[0]
        assert st["state"] == "page"
        assert st["value"] == 1000.0

    def test_alerts_section_shape(self):
        engine, _ = self.engine(avail_slo())
        for _ in range(20):
            engine.record_request("/v1/t", 1.0, error=True)
        alerts = engine.alerts()
        assert alerts["paging"] == 1
        assert alerts["warning"] == 0
        assert alerts["page"][0]["name"] == "t.availability"
        assert alerts["page"][0]["state"] == "page"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SLOEngine([avail_slo(), avail_slo()])


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_default_slos_cover_the_endpoints(self):
        slos = default_slos()
        selectors = {s.selector for s in slos}
        assert "/v1/partition" in selectors
        assert "solver:surrogate" in selectors
        assert any(s.signal == "staleness" for s in slos)
        SLOEngine(slos)  # constructible: unique names, all valid

    def test_slos_from_json_roundtrip(self):
        data = [s.as_dict() for s in default_slos()]
        parsed = slos_from_json(json.loads(json.dumps(data)))
        assert parsed == default_slos()

    def test_unknown_field_is_an_error(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            slos_from_json(
                [{"name": "x", "signal": "availability", "selector": "/v1/t",
                  "burn": 2}]
            )

    def test_empty_config_is_an_error(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            slos_from_json([])

    def test_load_slos_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(
            [{"name": "x", "signal": "availability", "selector": "/v1/t"}]
        ))
        (slo,) = load_slos(path)
        assert slo.name == "x"
        assert slo.objective == 0.999  # defaults fill in

    def test_load_slos_bad_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_slos(path)

    def test_load_slos_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_slos(tmp_path / "absent.json")
