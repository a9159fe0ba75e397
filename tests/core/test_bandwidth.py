"""Unit tests for bandwidth units and allocation (repro.core.bandwidth)."""

import numpy as np
import pytest

from repro.core import (
    BandwidthUnit,
    capped_allocation,
    greedy_allocation,
    normalize_shares,
)
from repro.util.errors import ConfigurationError


class TestBandwidthUnit:
    def test_paper_example(self):
        """Sec. III-A: 0.01 APC = 3.2 GB/s at 64 B lines, 5 GHz."""
        unit = BandwidthUnit(cache_line_bytes=64, cpu_frequency_hz=5e9)
        assert unit.to_gigabytes_per_sec(0.01) == pytest.approx(3.2)

    def test_roundtrip(self):
        unit = BandwidthUnit()
        for apc in (0.001, 0.01, 0.1):
            assert unit.to_apc(unit.to_bytes_per_sec(apc)) == pytest.approx(apc)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            BandwidthUnit(cache_line_bytes=0)


class TestNormalizeShares:
    def test_sums_to_one(self):
        b = normalize_shares(np.array([1.0, 2.0, 3.0]))
        assert b.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(b, [1 / 6, 2 / 6, 3 / 6])

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            normalize_shares(np.array([1.0, -0.1]))

    def test_rejects_all_zero(self):
        with pytest.raises(ConfigurationError):
            normalize_shares(np.zeros(3))


class TestCappedAllocation:
    def test_uncapped_is_proportional(self):
        beta = np.array([0.25, 0.25, 0.25, 0.25])
        demand = np.array([1.0, 1.0, 1.0, 1.0])
        alloc = capped_allocation(beta, 1.0, demand)
        np.testing.assert_allclose(alloc, 0.25)

    def test_capped_redistributes_slack(self):
        # app 0 can only use 0.1 of its 0.5 share; the slack goes to app 1
        beta = np.array([0.5, 0.5])
        demand = np.array([0.1, 10.0])
        alloc = capped_allocation(beta, 1.0, demand)
        np.testing.assert_allclose(alloc, [0.1, 0.9])

    def test_total_is_min_of_budget_and_demand(self):
        beta = np.array([0.5, 0.5])
        demand = np.array([0.1, 0.2])
        alloc = capped_allocation(beta, 1.0, demand)
        assert alloc.sum() == pytest.approx(0.3)
        np.testing.assert_allclose(alloc, demand)

    def test_never_exceeds_demand(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 8)
            beta = rng.dirichlet(np.ones(n))
            demand = rng.uniform(0.01, 1.0, size=n)
            alloc = capped_allocation(beta, 1.0, demand)
            assert np.all(alloc <= demand + 1e-12)
            assert alloc.sum() <= 1.0 + 1e-12

    def test_non_work_conserving_leaves_slack(self):
        beta = np.array([0.5, 0.5])
        demand = np.array([0.1, 10.0])
        alloc = capped_allocation(beta, 1.0, demand, work_conserving=False)
        np.testing.assert_allclose(alloc, [0.1, 0.5])

    def test_zero_share_gets_nothing_uncapped(self):
        beta = np.array([0.0, 1.0])
        demand = np.array([5.0, 5.0])
        alloc = capped_allocation(beta, 1.0, demand)
        np.testing.assert_allclose(alloc, [0.0, 1.0])

    def test_zero_share_can_get_spillover(self):
        # work conservation: even a zero-share app receives bandwidth the
        # others cannot use -- matches a work-conserving scheduler.
        beta = np.array([0.0, 1.0])
        demand = np.array([5.0, 0.2])
        alloc = capped_allocation(beta, 1.0, demand)
        assert alloc[1] == pytest.approx(0.2)
        # remaining 0.8 is unusable by app 1; app 0 has zero share but the
        # allocator gives the leftover to apps with headroom only if they
        # have nonzero share weight -- so the leftover is unassigned here.
        assert alloc[0] == pytest.approx(0.0)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            capped_allocation(np.array([0.5, 0.6]), 1.0, np.array([1.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            capped_allocation(np.array([1.0]), 1.0, np.array([1.0, 1.0]))


class TestGreedyAllocation:
    def test_priority_order_respected(self):
        order = np.array([2, 0, 1])
        demand = np.array([0.5, 0.5, 0.4])
        alloc = greedy_allocation(order, 1.0, demand)
        np.testing.assert_allclose(alloc, [0.5, 0.1, 0.4])

    def test_starvation_of_low_priority(self):
        order = np.array([0, 1])
        demand = np.array([2.0, 1.0])
        alloc = greedy_allocation(order, 1.0, demand)
        np.testing.assert_allclose(alloc, [1.0, 0.0])

    def test_budget_larger_than_demand(self):
        order = np.array([0, 1])
        demand = np.array([0.3, 0.3])
        alloc = greedy_allocation(order, 1.0, demand)
        np.testing.assert_allclose(alloc, demand)
