"""Tests for the ablation studies (repro.experiments.ablation)."""

import numpy as np
import pytest

from repro.core.metrics import metric_by_name
from repro.experiments import ablation
from repro.workloads.mixes import mix_core_specs


@pytest.fixture(scope="session")
def studies(runner, mvs_card):
    """Every simulating study, run once, counting the ablation's own
    ``simulate`` calls (the planned runs come from the runner)."""
    calls = []
    real = ablation.simulate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ablation, "simulate", counting)
        out = {
            "enforcement": ablation.enforcement_ablation(runner),
            "profiler": ablation.profiler_ablation(runner, mvs_card),
            "priority": ablation.priority_enforcement_ablation(runner),
            "online": ablation.online_vs_static_ablation(runner),
            "channel": ablation.channel_scaling_ablation(runner),
        }
    return out, len(calls)


def test_studies_simulate_only_what_the_plan_cannot(studies):
    """Six bespoke simulations, the plan's serial residue: the
    arrival-free enforcement run and the profiler's own-mode run are
    the planned Equal run, read from the runner."""
    from repro.experiments.plan import compile_plan

    residue = compile_plan(("ablation",), quick=True).serial_residue["ablation"]
    assert studies[1] == residue == 6


class TestModelVsSim:
    def test_share_scheme_apc_predictions_close(self, mvs_card):
        """The analytical model's per-app APC under share-based schemes
        must match the simulator within 5% on every Figure 2 mix -- the
        model validation at the heart of the paper."""
        assert len(mvs_card.mixes) == 14
        for scheme in ablation.SHARE_SCHEMES:
            for mix, err in mvs_card.errors("run_b", scheme).items():
                assert err <= 0.05, (scheme, mix, err)

    def test_priority_apc_predictions_close(self, mvs_card):
        """Knapsack allocations materialize in the simulator too; the
        starved app's absolute APC is tiny so compare share vectors."""
        for scheme in ("prio_apc", "prio_api"):
            pred, meas = mvs_card.apc["run_b", "hetero-5", scheme]
            np.testing.assert_allclose(
                pred / pred.sum(), meas / meas.sum(), atol=0.05
            )

    def test_metric_predictions_close(self, mvs_card):
        """Predicted vs measured Hsp/Wsp for share schemes within 12%,
        from the card's APC vectors (IPC = APC / API)."""
        api = np.array([s.api for s in mix_core_specs("hetero-5")])
        for scheme in ("equal", "prop", "sqrt"):
            pred, meas = mvs_card.apc["run_b", "hetero-5", scheme]
            alone = mvs_card.apc["profiler", "hetero-5", scheme][1]
            for name in ("hsp", "wsp"):
                metric = metric_by_name(name)
                assert metric(pred / api, alone / api) == pytest.approx(
                    metric(meas / api, alone / api), rel=0.12
                ), (scheme, name)

    def test_every_predictor_scores_every_run(self, mvs_card):
        for key in ablation.PREDICTORS:
            for scheme in ("equal", "prio_api"):
                assert len(mvs_card.errors(key, scheme)) == 14
        # Table III has no No_partitioning model
        assert mvs_card.errors("table3", "nopart") == {}
        assert len(mvs_card.errors("peak_b", "nopart")) == 14

    def test_render(self, mvs_card):
        text = ablation.render_model_vs_sim(mvs_card)
        assert "Model vs simulator" in text
        assert "seed 7" in text and "over 14 mixes" in text
        for label in ablation.PREDICTORS.values():
            assert label in text


class TestEnforcementAblation:
    def test_arrival_free_attains_target(self, studies):
        """Sec. IV-B: with the paper's arrival-free tags, the light app
        attains its (demand-capped) share under Equal."""
        res = studies[0]["enforcement"]
        assert res.share_arrival_free == pytest.approx(res.target_share, rel=0.2)

    def test_arrival_free_at_least_as_good(self, studies):
        """The paper's modification never hurts the light app relative to
        arrival-coupled DSTF."""
        res = studies[0]["enforcement"]
        assert res.share_arrival_free >= res.share_arrival_coupled - 0.01


class TestProfilerAblation:
    def test_stalled_mode_beats_pending_for_light_apps(self, studies):
        """The STFM-style gating is the more accurate estimator overall
        on a heterogeneous mix (raw pending-counting over-attributes
        interference to light apps)."""
        res = studies[0]["profiler"]
        assert res.errors["stalled"] <= res.errors["pending"] + 0.05

    def test_both_modes_bounded(self, studies, mvs_card):
        res = studies[0]["profiler"]
        assert res.errors["stalled"] == mvs_card.errors("profiler", "equal")["hetero-5"]
        for mode, err in res.errors.items():
            assert err < 0.5, (mode, err)


class TestPriorityEnforcement:
    def test_both_enforcements_agree_on_wsp(self, studies):
        """Strict priority and knapsack-as-shares are two realizations of
        the same allocation (paper Sec. III-D): Wsp within 10%."""
        res = studies[0]["priority"]
        assert res.wsp_shares == pytest.approx(res.wsp_strict, rel=0.10)

    def test_starvation_under_both(self, studies):
        """The lowest-priority app is starved under either realization."""
        res = studies[0]["priority"]
        assert res.apc_strict.min() < 0.1 * res.apc_strict.max()
        assert res.apc_shares.min() < 0.2 * res.apc_shares.max()


class TestOnlineVsStatic:
    def test_online_close_to_static(self, studies):
        """Fully-online operation (Sec. IV-C profiling, no alone-run
        oracle) must achieve >= 90% of the static-profile metric."""
        res = studies[0]["online"]
        assert res.relative_gap > 0.90, res

    def test_online_shares_converge_toward_static(self, studies):
        res = studies[0]["online"]
        np.testing.assert_allclose(res.beta_online, res.beta_static, atol=0.12)

    def test_metric_matches_scheme(self, runner):
        res = ablation.online_vs_static_ablation(runner, scheme_name="prop")
        assert res.metric == "minf"


class TestChannelScaling:
    def test_two_scaling_modes_equivalent(self, studies):
        """6.4 GB/s via 2x bus frequency vs via 2 channels: delivered
        bandwidth within 5% and per-app distribution within 10% -- the
        justification for the paper's frequency-only scaling in Fig. 4."""
        res = studies[0]["channel"]
        assert res.throughput_ratio == pytest.approx(1.0, abs=0.05)
        np.testing.assert_allclose(
            res.apc_two_channels, res.apc_fast_bus, rtol=0.10
        )

    def test_both_modes_deliver_more_than_baseline(self, runner, studies):
        res = studies[0]["channel"]
        base = runner.run("hetero-6", "nopart").sim.total_apc
        assert res.total_apc_fast_bus > base * 1.3
        assert res.total_apc_two_channels > base * 1.3
