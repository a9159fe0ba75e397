"""Tests for fixed-epoch online re-partitioning (repro.control's
EpochController with a plain EMA and change detection off) and
phase-changing workloads (repro.sim.cpu.CorePhase).

Together they exercise the last paragraph of paper Sec. IV-C: periodic
APC_alone profiling feeding share updates that track application
behaviour changes.
"""

import dataclasses
import json
import pathlib
import runpy

import numpy as np
import pytest

from repro.control import (
    EMASmoother,
    EpochController,
    ProfileTracker,
    RelativeShiftDetector,
)
from repro.core.partitioning import ProportionalPartitioning, SquareRootPartitioning
from repro.sim import (
    CorePhase,
    CoreSpec,
    SimConfig,
    StartTimeFairScheduler,
    run_alone,
    simulate,
)
from repro.util.errors import ConfigurationError, SimulationError


def heavy(name="heavy") -> CoreSpec:
    return CoreSpec(name=name, api=0.05, ipc_peak=0.5, mlp=16, write_fraction=0.1)


def light(name="light") -> CoreSpec:
    return CoreSpec(name=name, api=0.004, ipc_peak=0.5, mlp=2)


CFG = SimConfig(
    warmup_cycles=100_000,
    measure_cycles=400_000,
    seed=5,
    epoch_cycles=50_000.0,
)

#: per-epoch shares (float.hex) these scenarios produced before the
#: fixed-epoch controller moved onto EpochController
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_controller_shares.json").read_text()
)["shares"]


def fixed_epoch_controller(scheme, api, *, alpha=1.0, names=None, cfg=CFG):
    return EpochController(
        scheme,
        api,
        bandwidth=cfg.dram.peak_apc,
        epoch_cycles=cfg.epoch_cycles,
        names=names,
        tracker=ProfileTracker(
            len(api),
            smoother=EMASmoother(alpha=alpha),
            detector=RelativeShiftDetector(float("inf")),
        ),
    )


def share_hexes(ctrl):
    return [[float(b).hex() for b in d.beta] for d in ctrl.decisions]


class TestCorePhase:
    def test_params_at_walks_phases(self):
        spec = CoreSpec(
            name="p", api=0.01, ipc_peak=1.0, mlp=4,
            phases=(CorePhase(1000.0, 0.02, 0.5), CorePhase(2000.0, 0.03, 0.25)),
        )
        assert spec.params_at(0.0) == (0.01, 1.0)
        assert spec.params_at(1500.0) == (0.02, 0.5)
        assert spec.params_at(5000.0) == (0.03, 0.25)

    def test_unsorted_phases_rejected(self):
        with pytest.raises(SimulationError):
            CoreSpec(
                name="p", api=0.01, ipc_peak=1.0, mlp=4,
                phases=(CorePhase(2000.0, 0.02, 0.5), CorePhase(1000.0, 0.03, 0.25)),
            )

    def test_invalid_phase_values(self):
        with pytest.raises(ConfigurationError):
            CorePhase(0.0, -0.1, 1.0)
        with pytest.raises(SimulationError):
            CorePhase(-1.0, 0.1, 1.0)

    def test_phased_core_changes_measured_rate(self):
        """An app that turns memory-hungry mid-run shows the blended APC
        over a window spanning the transition."""
        calm = CoreSpec(name="c", api=0.004, ipc_peak=0.5, mlp=8)
        phased = dataclasses.replace(
            calm, phases=(CorePhase(300_000.0, 0.04, 0.5),)
        )
        cfg = SimConfig(warmup_cycles=0, measure_cycles=600_000, seed=9)
        calm_run = run_alone(calm, cfg)
        phased_run = run_alone(phased, cfg)
        assert phased_run.apc > 2.0 * calm_run.apc


class TestFixedEpochControllerIntegration:
    def test_converges_to_static_partition(self):
        """On a stationary workload, online re-partitioning must converge
        to the shares a static alone-run profile gives (Sec. IV-C: the
        estimate inaccuracy 'will not affect the efficiency')."""
        specs = [heavy(), light()]
        scheme = SquareRootPartitioning()
        ctrl = fixed_epoch_controller(
            scheme, [s.api for s in specs], names=[s.name for s in specs]
        )
        result = simulate(
            specs,
            lambda n: StartTimeFairScheduler(n, np.full(n, 0.5)),
            CFG,
            repartition_hook=ctrl,
        )
        assert ctrl.latest_beta is not None
        assert share_hexes(ctrl) == GOLDEN["converges_to_static_partition"]

        # static reference shares from true alone profiles
        from repro.core.apps import AppProfile, Workload

        truth = Workload.of(
            "truth",
            [
                AppProfile(s.name, api=s.api, apc_alone=run_alone(s, CFG).apc)
                for s in specs
            ],
        )
        np.testing.assert_allclose(
            ctrl.latest_beta, scheme.beta(truth), atol=0.08
        )

    def test_adaptation_tracks_phase_change(self):
        """When the light app turns heavy mid-run, a Proportional
        controller must shift bandwidth toward it."""
        morphing = dataclasses.replace(
            light("morph"),
            mlp=16,
            phases=(CorePhase(250_000.0, 0.05, 0.5),),
        )
        specs = [heavy(), morphing]
        cfg = dataclasses.replace(CFG, warmup_cycles=0, measure_cycles=500_000)
        ctrl = fixed_epoch_controller(
            ProportionalPartitioning(),
            # API changes at the phase boundary; use the late-phase value
            # (the paper measures API online; we declare it)
            [0.05, 0.05],
            cfg=cfg,
        )
        simulate(
            specs,
            lambda n: StartTimeFairScheduler(n, np.full(n, 0.5)),
            cfg,
            repartition_hook=ctrl,
        )
        assert share_hexes(ctrl) == GOLDEN["adaptation_tracks_phase_change"]
        assert len(ctrl.decisions) >= 2
        early_beta = ctrl.decisions[1].beta
        late_beta = ctrl.latest_beta
        # the morphing app's share must grow substantially after its phase
        assert late_beta[1] > early_beta[1] + 0.15

    def test_smoothing_damps_updates(self):
        specs = [heavy(), light()]
        api = [s.api for s in specs]
        raw = fixed_epoch_controller(SquareRootPartitioning(), api)
        smooth = fixed_epoch_controller(SquareRootPartitioning(), api, alpha=0.2)
        for ctrl in (raw, smooth):
            simulate(
                specs,
                lambda n: StartTimeFairScheduler(n, np.full(n, 0.5)),
                CFG,
                repartition_hook=ctrl,
            )
        # the unsmoothed run is the converges_to_static_partition scenario
        assert share_hexes(raw) == GOLDEN["converges_to_static_partition"]
        assert share_hexes(smooth) == GOLDEN["smoothing_damps_updates"]
        # both settle near the same shares eventually
        np.testing.assert_allclose(
            raw.latest_beta, smooth.latest_beta, atol=0.1
        )

    def test_example_share_trajectory(self, capsys):
        example = (
            pathlib.Path(__file__).parents[2] / "examples" / "online_adaptation.py"
        )
        scope = runpy.run_path(str(example), run_name="__main__")
        capsys.readouterr()
        assert share_hexes(scope["controller"]) == GOLDEN["online_adaptation_example"]
