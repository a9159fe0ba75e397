"""Unit tests for the system metrics (repro.core.metrics)."""

import numpy as np
import pytest

from repro.core import (
    ALL_METRICS,
    HarmonicWeightedSpeedup,
    MinFairness,
    SumOfIPCs,
    WeightedSpeedup,
    metric_by_name,
    speedups,
)
from repro.core.metrics import apc_error
from repro.util.errors import ConfigurationError

IPC_ALONE = np.array([2.0, 1.0, 0.5, 0.25])


class TestSpeedups:
    def test_identity_at_alone_performance(self):
        np.testing.assert_allclose(speedups(IPC_ALONE, IPC_ALONE), 1.0)

    def test_half_speed(self):
        np.testing.assert_allclose(speedups(IPC_ALONE / 2, IPC_ALONE), 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            speedups(np.ones(3), np.ones(4))

    def test_zero_alone_rejected(self):
        with pytest.raises(ConfigurationError):
            speedups(np.ones(2), np.array([1.0, 0.0]))


class TestHarmonicWeightedSpeedup:
    def test_equals_one_at_alone_performance(self):
        assert HarmonicWeightedSpeedup()(IPC_ALONE, IPC_ALONE) == pytest.approx(1.0)

    def test_eq3_hand_computed(self):
        # two apps at speedups 1/2 and 1/4: Hsp = 2 / (2 + 4) = 1/3
        shared = np.array([1.0, 0.25])
        alone = np.array([2.0, 1.0])
        assert HarmonicWeightedSpeedup()(shared, alone) == pytest.approx(1 / 3)

    def test_starvation_gives_zero(self):
        shared = np.array([1.0, 0.0])
        assert HarmonicWeightedSpeedup()(shared, IPC_ALONE[:2]) == 0.0

    def test_dominated_by_weighted_speedup(self, rng):
        # harmonic mean <= arithmetic mean of speedups, always
        for _ in range(100):
            alone = rng.uniform(0.1, 3.0, 4)
            shared = alone * rng.uniform(0.05, 1.0, 4)
            hsp = HarmonicWeightedSpeedup()(shared, alone)
            wsp = WeightedSpeedup()(shared, alone)
            assert hsp <= wsp + 1e-12


class TestWeightedSpeedup:
    def test_equals_one_at_alone_performance(self):
        assert WeightedSpeedup()(IPC_ALONE, IPC_ALONE) == pytest.approx(1.0)

    def test_eq9_hand_computed(self):
        shared = np.array([1.0, 0.25])
        alone = np.array([2.0, 1.0])
        # speedups 0.5 and 0.25 -> mean 0.375
        assert WeightedSpeedup()(shared, alone) == pytest.approx(0.375)

    def test_linear_in_each_app(self):
        base = WeightedSpeedup()(IPC_ALONE * 0.5, IPC_ALONE)
        bumped = IPC_ALONE * 0.5
        bumped = bumped.copy()
        bumped[0] += 0.1
        delta = WeightedSpeedup()(bumped, IPC_ALONE) - base
        assert delta == pytest.approx(0.1 / IPC_ALONE[0] / len(IPC_ALONE))


class TestSumOfIPCs:
    def test_eq10_is_plain_sum(self):
        shared = np.array([0.3, 0.2, 0.1])
        assert SumOfIPCs()(shared, np.ones(3)) == pytest.approx(0.6)

    def test_ignores_alone_values(self):
        shared = np.array([0.3, 0.2])
        a = SumOfIPCs()(shared, np.array([1.0, 1.0]))
        b = SumOfIPCs()(shared, np.array([9.0, 0.1]))
        assert a == b


class TestMinFairness:
    def test_eq14_hand_computed(self):
        shared = np.array([1.0, 0.25])
        alone = np.array([2.0, 1.0])
        # min speedup 0.25, N=2 -> 0.5
        assert MinFairness()(shared, alone) == pytest.approx(0.5)

    def test_threshold_one_at_equal_nth_share(self):
        # every app at exactly 1/N speedup -> MinF == 1 (the paper's
        # "achieves minimum fairness" criterion)
        n = 4
        assert MinFairness()(IPC_ALONE / n, IPC_ALONE) == pytest.approx(1.0)

    def test_starvation_gives_zero(self):
        shared = IPC_ALONE.copy()
        shared[-1] = 0.0
        assert MinFairness()(shared, IPC_ALONE) == 0.0

    def test_maximized_by_equal_speedups(self, rng):
        """For fixed total 'speedup budget', equal speedups maximize MinF."""
        alone = np.array([2.0, 1.0, 0.5])
        equal = MinFairness()(alone * 0.4, alone)
        for _ in range(50):
            perturb = rng.uniform(-0.1, 0.1, 3)
            perturb -= perturb.mean()  # keep average speedup fixed
            shared = alone * (0.4 + perturb)
            assert MinFairness()(shared, alone) <= equal + 1e-12


class TestRegistry:
    def test_all_metrics_registered(self):
        assert {m.name for m in ALL_METRICS} == {"hsp", "wsp", "ipcsum", "minf"}

    def test_lookup_by_name(self):
        assert isinstance(metric_by_name("hsp"), HarmonicWeightedSpeedup)
        assert isinstance(metric_by_name("minf"), MinFairness)

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError):
            metric_by_name("throughput")

    def test_all_higher_is_better(self):
        assert all(m.higher_is_better for m in ALL_METRICS)


class TestApcError:
    def test_exact_prediction_is_zero(self):
        assert apc_error([0.003, 0.001], [0.003, 0.001]) == 0.0

    def test_sum_of_misses_over_sum_of_simulated(self):
        # |0.004 - 0.005| + |0.002 - 0.001| over 0.006
        assert apc_error([0.004, 0.002], [0.005, 0.001]) == pytest.approx(1 / 3)

    def test_starved_app_weighs_by_its_apc(self):
        """A starved app's miss counts by its bandwidth, so one tiny
        denominator cannot decide the number (the per-app mean reads
        about 50 here)."""
        assert apc_error([0.005, 1e-4], [0.005, 2e-6]) == pytest.approx(
            0.0196, abs=1e-4
        )

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            apc_error([0.1, 0.2], [0.1])
