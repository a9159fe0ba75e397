"""Shadow sampler determinism/bounds and online drift scoring."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.util.errors import ConfigurationError
from repro.watch import DriftMonitor, ShadowSampler


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------
class TestShadowSampler:
    def test_stride_is_deterministic(self):
        s = ShadowSampler(0.5)  # stride 2: every second call
        hits = []
        for _ in range(10):
            if s.try_acquire():
                hits.append(True)
                s.release()
        assert len(hits) == 5

    def test_rate_zero_never_samples(self):
        s = ShadowSampler(0.0)
        assert not any(s.try_acquire() for _ in range(100))
        assert s.snapshot()["calls"] == 0  # fast path skips the counter

    def test_rate_one_samples_everything(self):
        s = ShadowSampler(1.0, max_inflight=200)
        assert all(s.try_acquire() for _ in range(100))

    def test_default_rate_stride(self):
        assert ShadowSampler(0.05).stride == 20
        assert ShadowSampler(0.33).stride == 3

    def test_inflight_bound_skips_instead_of_queueing(self):
        s = ShadowSampler(1.0, max_inflight=1)
        assert s.try_acquire()
        assert not s.try_acquire()  # bound full: skipped, not queued
        snap = s.snapshot()
        assert snap["sampled"] == 1
        assert snap["skipped_inflight"] == 1
        s.release()
        assert s.try_acquire()

    def test_release_must_match_acquire(self):
        s = ShadowSampler(1.0)
        with pytest.raises(RuntimeError, match="release"):
            s.release()

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            ShadowSampler(1.5)
        with pytest.raises(ConfigurationError):
            ShadowSampler(0.5, max_inflight=0)


# ----------------------------------------------------------------------
# drift monitor
# ----------------------------------------------------------------------
class TestDriftMonitor:
    def monitor(self, **kw) -> DriftMonitor:
        kw.setdefault("max_mape", 0.05)
        kw.setdefault("window", 4)
        kw.setdefault("min_samples", 4)
        return DriftMonitor(**kw)

    def test_accurate_predictions_stay_healthy(self):
        mon = self.monitor()
        for _ in range(10):
            out = mon.record("sqrt", [0.4, 0.3], [0.4, 0.3])
        assert out["mape"] == pytest.approx(0.0)
        assert out["r2"] == pytest.approx(1.0)
        assert not mon.degraded

    def test_drifted_predictions_breach_after_min_samples(self):
        mon = self.monitor()
        out = mon.record("sqrt", [1.0], [0.5])
        assert not out["breached"]  # n=1 < min_samples: no verdict yet
        for _ in range(3):
            out = mon.record("sqrt", [1.0], [0.5])
        assert out["breached"]
        assert mon.degraded
        assert mon.breached_schemes() == ("sqrt",)

    def test_breach_is_per_scheme(self):
        mon = self.monitor()
        for _ in range(4):
            mon.record("sqrt", [1.0], [0.5])
            mon.record("prop", [1.0], [1.0])
        snap = mon.snapshot()
        assert snap["schemes"]["sqrt"]["breached"]
        assert not snap["schemes"]["prop"]["breached"]
        assert snap["degraded"]  # any breached scheme degrades the artifact

    def test_hysteresis_band_prevents_flapping(self):
        mon = self.monitor()  # gate 0.05, recovery at 0.04
        for _ in range(4):
            mon.record("sqrt", [1.0], [0.5])
        assert mon.degraded
        # refresh the window down to one 18%-off pair: mape 0.045 sits
        # inside the (0.04, 0.05] hysteresis band -> still degraded
        out = mon.record("sqrt", [1.0], [0.82])
        for _ in range(3):
            out = mon.record("sqrt", [1.0], [1.0])
        assert out["mape"] == pytest.approx(0.045)
        assert mon.degraded
        # one more perfect pair evicts it: below the band -> recovered
        out = mon.record("sqrt", [1.0], [1.0])
        assert out["mape"] == pytest.approx(0.0)
        assert not mon.degraded

    def test_window_is_bounded(self):
        mon = self.monitor(window=4)
        for _ in range(100):
            out = mon.record("sqrt", [1.0], [0.5])
        assert out["n"] == 4
        assert mon.snapshot()["samples"] == 100

    def test_a_multi_app_sample_counts_once(self):
        """``window``, ``min_samples`` and ``n`` count shadow samples (one
        per request), not the per-app values inside them; the MAPE pools
        every per-app value of the samples in the window."""
        mon = self.monitor(window=4, min_samples=2)
        out = mon.record("sqrt", [1.0] * 4, [0.5] * 4)
        assert out["n"] == 1
        assert not out["breached"]  # 1 sample < min_samples: no verdict
        out = mon.record("sqrt", [1.0] * 4, [0.5] * 4)
        assert out["n"] == 2
        assert out["breached"]
        for _ in range(3):
            out = mon.record("sqrt", [1.0] * 4, [1.0] * 4)
        # four samples of four apps: one 50%-off sample among them
        assert out["n"] == 4
        assert out["mape"] == pytest.approx(4 * 0.5 / 16)
        assert mon.snapshot()["schemes"]["sqrt"]["n"] == 4

    def test_shape_mismatch_rejected(self):
        mon = self.monitor()
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            mon.record("sqrt", [1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            mon.record("sqrt", [], [])

    def test_age_tracks_last_sample(self):
        clock = FakeClock()
        mon = self.monitor(clock=clock)
        assert mon.age_s() is None
        mon.record("sqrt", [1.0], [1.0])
        clock.advance(42.0)
        assert mon.age_s() == pytest.approx(42.0)

    def test_registry_mirroring(self):
        reg = MetricsRegistry()
        mon = self.monitor(registry=reg)
        for _ in range(4):
            mon.record("sqrt", [1.0], [0.5])
        assert reg.get_value("surrogate.drift.samples", scheme="sqrt") == 4.0
        assert reg.get_value("surrogate.drift.mape", scheme="sqrt") == pytest.approx(0.5)
        assert reg.get_value("surrogate.drift.degraded") == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            DriftMonitor(max_mape=0.0)
        with pytest.raises(ConfigurationError):
            DriftMonitor(window=0)
        with pytest.raises(ConfigurationError):
            DriftMonitor(recover_margin=1.5)
