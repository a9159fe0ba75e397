"""Unit tests for partitioning schemes (repro.core.partitioning)."""

import numpy as np
import pytest

from repro.core import (
    SCHEME_ORDER,
    EqualPartitioning,
    NoPartitioningModel,
    PowerPartitioning,
    PriorityAPC,
    PriorityAPI,
    ProportionalPartitioning,
    SquareRootPartitioning,
    TwoThirdsPowerPartitioning,
    Workload,
    AppProfile,
    default_schemes,
    scheme_by_name,
)
from repro.util.errors import ConfigurationError

B = 0.01


class TestShareRules:
    def test_equal_shares(self, hetero_workload):
        beta = EqualPartitioning().beta(hetero_workload)
        np.testing.assert_allclose(beta, 0.25)

    def test_proportional_shares(self, hetero_workload):
        beta = ProportionalPartitioning().beta(hetero_workload)
        a = hetero_workload.apc_alone
        np.testing.assert_allclose(beta, a / a.sum())

    def test_square_root_shares(self, hetero_workload):
        beta = SquareRootPartitioning().beta(hetero_workload)
        s = np.sqrt(hetero_workload.apc_alone)
        np.testing.assert_allclose(beta, s / s.sum())

    def test_two_thirds_shares(self, hetero_workload):
        beta = TwoThirdsPowerPartitioning().beta(hetero_workload)
        w = hetero_workload.apc_alone ** (2 / 3)
        np.testing.assert_allclose(beta, w / w.sum())

    def test_power_family_endpoints(self, hetero_workload):
        # alpha=0 -> Equal; alpha=1 -> Proportional
        np.testing.assert_allclose(
            PowerPartitioning(0.0).beta(hetero_workload),
            EqualPartitioning().beta(hetero_workload),
        )
        np.testing.assert_allclose(
            PowerPartitioning(1.0).beta(hetero_workload),
            ProportionalPartitioning().beta(hetero_workload),
        )

    def test_all_shares_sum_to_one(self, hetero_workload):
        for scheme in default_schemes().values():
            if hasattr(scheme, "beta"):
                assert scheme.beta(hetero_workload).sum() == pytest.approx(1.0)

    def test_share_ordering_by_alpha(self, hetero_workload):
        """Sec. III-F: among Prop, Sqrt, Priority_APC, Priority_APC gives
        the most to low-APC apps and Proportional the least; more broadly
        a smaller exponent gives low-APC apps a larger share."""
        low_idx = int(np.argmin(hetero_workload.apc_alone))
        shares = [
            PowerPartitioning(alpha).beta(hetero_workload)[low_idx]
            for alpha in (0.0, 0.5, 2 / 3, 1.0)
        ]
        assert shares == sorted(shares, reverse=True)


class TestPrioritySchemes:
    def test_priority_apc_order(self, hetero_workload):
        order = PriorityAPC().priority_order(hetero_workload)
        a = hetero_workload.apc_alone
        assert list(a[order]) == sorted(a)

    def test_priority_api_order(self, hetero_workload):
        order = PriorityAPI().priority_order(hetero_workload)
        api = hetero_workload.api
        assert list(api[order]) == sorted(api)

    def test_priority_allocation_starves_heaviest(self, hetero_workload):
        alloc = PriorityAPC().allocate(hetero_workload, B)
        heaviest = int(np.argmax(hetero_workload.apc_alone))
        # the paper: strict priority causes starvation for high-APC apps
        assert alloc[heaviest] < hetero_workload.apc_alone[heaviest]

    def test_priority_allocation_fills_budget(self, hetero_workload):
        alloc = PriorityAPC().allocate(hetero_workload, B)
        total = min(B, hetero_workload.apc_alone.sum())
        assert alloc.sum() == pytest.approx(total)

    def test_api_and_apc_agree_when_correlated(self):
        """Paper Sec. VI-A: for heterogeneous workloads the two priority
        schemes coincide because high-API apps are also high-APC.  Build
        a workload where the API and APC_alone orderings agree."""
        wl = Workload.of(
            "correlated",
            [
                AppProfile("lbm", api=0.0531331, apc_alone=0.00938517),
                AppProfile("milc", api=0.0422216, apc_alone=0.00687143),
                AppProfile("gromacs", api=0.0051976, apc_alone=0.00336604),
                AppProfile("gobmk", api=0.0040668, apc_alone=0.00191485),
            ],
        )
        a = PriorityAPC().allocate(wl, B)
        b = PriorityAPI().allocate(wl, B)
        np.testing.assert_allclose(a, b)

    def test_api_and_apc_differ_when_anticorrelated(self):
        """hmmer has higher APC_alone but lower API than leslie3d
        (paper Sec. VI-A) -- the schemes must diverge."""
        wl = Workload.of(
            "hmmer-leslie",
            [
                AppProfile("hmmer", api=0.0046008, apc_alone=0.00529083),
                AppProfile("leslie3d", api=0.0075847, apc_alone=0.0043855),
            ],
        )
        a = PriorityAPC().allocate(wl, 0.006)
        b = PriorityAPI().allocate(wl, 0.006)
        assert not np.allclose(a, b)
        # APC priority serves leslie3d (lower APC) first
        assert a[1] == pytest.approx(wl.apc_alone[1])
        # API priority serves hmmer (lower API) first
        assert b[0] == pytest.approx(wl.apc_alone[0])


class TestAllocationInvariants:
    def test_no_scheme_exceeds_demand(self, hetero_workload):
        for scheme in default_schemes().values():
            alloc = scheme.allocate(hetero_workload, B)
            assert np.all(alloc <= hetero_workload.apc_alone + 1e-12), scheme.name

    def test_all_schemes_use_full_budget(self, hetero_workload):
        total = min(B, hetero_workload.apc_alone.sum())
        for scheme in default_schemes().values():
            alloc = scheme.allocate(hetero_workload, B)
            assert alloc.sum() == pytest.approx(total), scheme.name

    def test_homogeneous_apps_make_share_schemes_equal(self):
        """Paper Sec. VI-A: identical APC_alone collapses Equal,
        Proportional and Square_root to the same allocation."""
        wl = Workload.of(
            "identical",
            [AppProfile(f"a{i}", api=0.01, apc_alone=0.003) for i in range(4)],
        )
        allocs = [
            s.allocate(wl, B)
            for s in (
                EqualPartitioning(),
                ProportionalPartitioning(),
                SquareRootPartitioning(),
            )
        ]
        np.testing.assert_allclose(allocs[0], allocs[1])
        np.testing.assert_allclose(allocs[0], allocs[2])


class TestNoPartitioningModel:
    def test_overweights_heavy_apps(self, hetero_workload):
        beta_np = NoPartitioningModel(gamma=1.3).beta(hetero_workload)
        beta_prop = ProportionalPartitioning().beta(hetero_workload)
        heavy = int(np.argmax(hetero_workload.apc_alone))
        light = int(np.argmin(hetero_workload.apc_alone))
        assert beta_np[heavy] > beta_prop[heavy]
        assert beta_np[light] < beta_prop[light]

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            NoPartitioningModel(gamma=0.9)


class TestRegistry:
    def test_default_schemes_match_paper_fig2(self):
        assert set(default_schemes()) == set(SCHEME_ORDER)

    def test_lookup(self):
        assert isinstance(scheme_by_name("sqrt"), SquareRootPartitioning)
        assert isinstance(scheme_by_name("nopart"), NoPartitioningModel)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            scheme_by_name("bogus")
