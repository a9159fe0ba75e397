"""Tests for the non-stationary workload generators.

Covers the ground-truth schedule contract (sorted, deterministic under a
fixed seed) and -- via alone-mode simulation -- that each declared phase
operating point is actually achievable by the core model, which is what
makes the declared schedule a valid oracle.
"""

import numpy as np
import pytest

from repro.sim.engine import SimConfig
from repro.util.errors import ConfigurationError
from repro.workloads import (
    SCENARIOS,
    alternating_workload,
    bursty_workload,
    phase_swap_workload,
    ramp_workload,
    scenario,
)
from repro.workloads.calibrate import measure_alone_apc


class TestRegistry:
    def test_names(self):
        assert set(SCENARIOS) == {
            "ramp",
            "alternating",
            "bursty",
            "phase-swap",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario("nope")

    def test_all_scenarios_instantiate(self):
        for name in SCENARIOS:
            wl = scenario(name)
            assert wl.n == 4
            assert len(wl.core_specs()) == 4


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_schedule(self, name):
        a, b = scenario(name, seed=99), scenario(name, seed=99)
        assert a == b  # frozen dataclasses compare by value

    def test_bursty_seed_changes_burst_placement(self):
        a = bursty_workload(seed=1)
        b = bursty_workload(seed=2)
        assert a.change_cycles() != b.change_cycles()

    def test_ramp_seed_changes_jitter(self):
        a = ramp_workload(seed=1)
        b = ramp_workload(seed=2)
        assert a.true_apc_alone(0.0).tolist() != b.true_apc_alone(0.0).tolist()


class TestScheduleStructure:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_change_cycles_sorted_within_horizon(self, name):
        wl = scenario(name)
        changes = wl.change_cycles()
        assert list(changes) == sorted(changes)
        assert all(0 < c < 1_200_000.0 for c in changes)

    def test_phase_swap_single_change(self):
        wl = phase_swap_workload(swap_cycle=500_000.0)
        assert wl.change_cycles() == (500_000.0,)
        before, after = wl.true_apc_alone(0.0), wl.true_apc_alone(500_000.0)
        # the swap inverts the ranking exactly
        np.testing.assert_allclose(before, after[[1, 0, 3, 2]])
        assert before[0] > before[1]

    def test_alternating_stagger_halves_the_quiet_time(self):
        wl = alternating_workload(period_cycles=200_000.0, stagger=True)
        # staggered neighbours flip half a period apart
        assert 100_000.0 in wl.change_cycles()
        assert 200_000.0 in wl.change_cycles()

    def test_ramp_is_monotonic_per_app(self):
        wl = ramp_workload(steps=5)
        t0 = wl.tracks[0]  # even index ramps up
        vals = [s.apc_alone for s in t0.segments]
        assert vals == sorted(vals)
        t1 = wl.tracks[1]  # odd index ramps down
        vals = [s.apc_alone for s in t1.segments]
        assert vals == sorted(vals, reverse=True)

    def test_bursty_only_burst_apps_change(self):
        wl = bursty_workload(burst_apps=2, n_apps=4)
        assert wl.tracks[0].change_cycles() != ()
        assert wl.tracks[1].change_cycles() != ()
        assert wl.tracks[2].change_cycles() == ()
        assert wl.tracks[3].change_cycles() == ()

    def test_track_at_selects_segment(self):
        wl = phase_swap_workload(swap_cycle=600_000.0)
        t = wl.tracks[0]
        assert t.at(0.0) is t.segments[0]
        assert t.at(599_999.0) is t.segments[0]
        assert t.at(600_000.0) is t.segments[1]

    def test_core_specs_carry_phases(self):
        wl = phase_swap_workload()
        spec = wl.core_specs()[0]
        assert len(spec.phases) == 2
        api0, ipc0 = spec.params_at(0.0)
        api1, ipc1 = spec.params_at(700_000.0)
        assert api0 * ipc0 == pytest.approx(wl.true_apc_alone(0.0)[0])
        assert api1 * ipc1 == pytest.approx(wl.true_apc_alone(700_000.0)[0])


class TestValidation:
    def test_intensity_guard(self):
        with pytest.raises(ConfigurationError):
            phase_swap_workload(hi_frac=0.9)

    def test_swap_must_be_inside_horizon(self):
        with pytest.raises(ConfigurationError):
            phase_swap_workload(swap_cycle=2_000_000.0)

    def test_burst_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            bursty_workload(n_bursts=4, burst_cycles=400_000.0)

    def test_ramp_needs_steps(self):
        with pytest.raises(ConfigurationError):
            ramp_workload(steps=1)


class TestGroundTruthAchievable:
    """Declared per-phase APC_alone must match alone-mode simulation.

    This is the property that turns the declared schedule into a usable
    phase oracle: a stationary core pinned at a phase's operating point
    must standalone-achieve the declared APC to within a few percent.
    """

    @pytest.mark.parametrize("frac", [0.08, 0.45])
    def test_phase_operating_point_achieved_alone(self, frac):
        wl = phase_swap_workload(lo_frac=frac, hi_frac=0.45)
        track = wl.tracks[1]  # starts in its lo phase
        seg = track.segments[0]
        # pin a stationary spec at the segment's operating point
        from repro.sim.cpu import CoreSpec
        from repro.sim.stream import StreamSpec

        spec = CoreSpec(
            name="pin",
            api=seg.api,
            ipc_peak=seg.ipc_peak,
            mlp=track.mlp,
            write_fraction=track.write_fraction,
            stream=StreamSpec(row_locality=track.row_locality),
        )
        cfg = SimConfig(warmup_cycles=100_000.0, measure_cycles=1_000_000.0, seed=7)
        measured = measure_alone_apc(spec, cfg)
        assert measured == pytest.approx(seg.apc_alone, rel=0.10)
