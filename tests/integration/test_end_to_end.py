"""End-to-end integration tests crossing every package boundary.

Each test walks a complete user journey: profile -> plan -> enforce ->
measure -> evaluate, combining the analytical core, the workloads layer
and the cycle-level simulator the way the examples (and the paper) do.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    AnalyticalModel,
    AppProfile,
    HarmonicWeightedSpeedup,
    QoSPartitioner,
    QoSTarget,
    SquareRootPartitioning,
    Workload,
)
from repro.sim import (
    FCFSScheduler,
    SimConfig,
    StartTimeFairScheduler,
    run_alone,
    simulate,
)
from repro.workloads.mixes import mix_core_specs

CFG = SimConfig(warmup_cycles=100_000, measure_cycles=400_000, seed=7)


@pytest.fixture(scope="module")
def profiled():
    """(specs, profiles, ipc_alone) for hetero-6, measured once."""
    specs = mix_core_specs("hetero-6")
    alone = [run_alone(s, CFG) for s in specs]
    profiles = Workload.of(
        "hetero-6",
        [AppProfile(s.name, api=s.api, apc_alone=a.apc)
         for s, a in zip(specs, alone)],
    )
    ipc_alone = np.array([a.ipc for a in alone])
    return specs, profiles, ipc_alone


class TestModelPredictsSimulator:
    def test_square_root_end_to_end(self, profiled):
        """Plan with the model, enforce with STF, measure, compare."""
        specs, profiles, ipc_alone = profiled
        scheme = SquareRootPartitioning()
        beta = scheme.beta(profiles)
        sim = simulate(specs, lambda n: StartTimeFairScheduler(n, beta), CFG)

        model = AnalyticalModel(profiles, sim.total_apc)
        predicted = model.operating_point(scheme)
        np.testing.assert_allclose(
            sim.apc_shared, predicted.apc_shared, rtol=0.08
        )
        hsp = HarmonicWeightedSpeedup()
        assert hsp(sim.ipc_shared, ipc_alone) == pytest.approx(
            hsp(predicted.ipc_shared, profiles.ipc_alone), rel=0.08
        )

    def test_model_ranks_schemes_like_simulator(self, profiled):
        """The model's scheme ordering on Hsp matches the simulator's for
        every *well-separated* pair (>3% apart analytically) -- the 'use
        the model instead of simulating' value proposition.  Near-ties
        (Equal vs Proportional differ by <1% here, as in the paper) can
        legitimately flip under measurement noise."""
        from repro.core import default_schemes

        specs, profiles, ipc_alone = profiled
        hsp = HarmonicWeightedSpeedup()
        sim_vals, model_vals = {}, {}
        share_schemes = {
            k: v for k, v in default_schemes().items()
            if k in ("equal", "prop", "sqrt", "twothirds")
        }
        for name, scheme in share_schemes.items():
            beta = scheme.beta(profiles)
            sim = simulate(
                specs, lambda n, b=beta: StartTimeFairScheduler(n, b), CFG
            )
            sim_vals[name] = hsp(sim.ipc_shared, ipc_alone)
            model = AnalyticalModel(profiles, sim.total_apc)
            model_vals[name] = model.evaluate(hsp, scheme)
        names = list(share_schemes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if abs(model_vals[a] - model_vals[b]) < 0.03 * model_vals[a]:
                    continue  # analytic near-tie: no ordering claim
                model_order = model_vals[a] > model_vals[b]
                sim_order = sim_vals[a] > sim_vals[b]
                assert model_order == sim_order, (a, b, model_vals, sim_vals)
        # and the model's top pick is the simulator's top pick
        assert max(sim_vals, key=sim_vals.get) == max(
            model_vals, key=model_vals.get
        )


class TestQoSAdmissionOnSimulator:
    def test_admitted_plan_holds_on_simulator(self, profiled):
        """A QoS plan, enforced via STF, actually delivers every IPC
        target in the cycle-level simulator."""
        specs, profiles, _ = profiled
        light_apps = sorted(
            profiles, key=lambda a: a.apc_alone
        )[:2]
        targets = [
            QoSTarget(a.name, a.ipc_alone * 0.7) for a in light_apps
        ]
        plan = QoSPartitioner().plan(profiles, 0.0094, targets)
        sim = simulate(
            specs,
            lambda n, b=plan.beta: StartTimeFairScheduler(n, b),
            CFG,
        )
        for t in targets:
            i = profiles.index_of(t.app_name)
            assert sim.ipc_shared[i] >= t.ipc_target * 0.88, t


class TestFrontierOnSimulator:
    def test_analytic_frontier_peak_holds_in_simulation(self, profiled):
        """Three family members (alpha = 0.25/0.5/1.0): the analytically
        best alpha for Hsp (0.5, Square_root) also measures best in the
        simulator (the tail orderings are near-ties; see the ranking test)."""
        from repro.core import PowerPartitioning, power_family_frontier

        specs, profiles, ipc_alone = profiled
        alphas = [0.25, 0.5, 1.0]
        hsp = HarmonicWeightedSpeedup()
        measured = []
        for alpha in alphas:
            beta = PowerPartitioning(alpha).beta(profiles)
            sim = simulate(
                specs, lambda n, b=beta: StartTimeFairScheduler(n, b), CFG
            )
            measured.append(hsp(sim.ipc_shared, ipc_alone))
        points = power_family_frontier(
            profiles, 0.0094, alphas=np.array(alphas)
        )
        analytic = [p["hsp"] for p in points]
        assert int(np.argmax(analytic)) == 1  # alpha = 0.5
        # measured: alpha=0.5 is at (or within noise of) the top, and
        # clearly beats the fairness-optimal end of the family
        assert measured[1] >= max(measured) * 0.98
        assert measured[1] > measured[2] * 1.02


class TestBandwidthConservationAcrossStack:
    def test_total_apc_invariant_across_schemes(self, profiled):
        """Eq. (2): utilized bandwidth is (nearly) scheme-invariant for a
        saturating workload -- the model's central assumption, end to end."""
        specs, profiles, _ = profiled
        totals = []
        for beta in (
            np.full(4, 0.25),
            SquareRootPartitioning().beta(profiles),
        ):
            sim = simulate(
                specs, lambda n, b=beta: StartTimeFairScheduler(n, b), CFG
            )
            totals.append(sim.total_apc)
        fcfs = simulate(specs, lambda n: FCFSScheduler(n), CFG)
        totals.append(fcfs.total_apc)
        assert max(totals) / min(totals) < 1.06, totals
