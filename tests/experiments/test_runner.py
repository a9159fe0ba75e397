"""Tests for the experiment runner (repro.experiments.runner)."""

import numpy as np
import pytest

from repro.experiments.runner import (
    ALL_SCHEME_NAMES,
    NOPART,
    scheduler_factory,
)
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.mc.priority import PriorityScheduler
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.util.errors import ConfigurationError
from repro.workloads.mixes import mix_core_specs


class TestSchedulerWiring:
    def test_nopart_is_fcfs(self, runner):
        specs = mix_core_specs("hetero-5")
        factory = scheduler_factory(NOPART, runner.profiles(specs))
        assert isinstance(factory(4), FCFSScheduler)

    def test_share_schemes_use_stf(self, runner):
        specs = mix_core_specs("hetero-5")
        profiles = runner.profiles(specs)
        for name in ("equal", "prop", "sqrt", "twothirds"):
            sched = scheduler_factory(name, profiles)(4)
            assert isinstance(sched, StartTimeFairScheduler), name
            assert sched.beta.sum() == pytest.approx(1.0)

    def test_priority_schemes_use_priority_scheduler(self, runner):
        specs = mix_core_specs("hetero-5")
        profiles = runner.profiles(specs)
        sched = scheduler_factory("prio_apc", profiles)(4)
        assert isinstance(sched, PriorityScheduler)
        # lowest measured APC_alone first
        assert sched.priority_order[0] == int(np.argmin(profiles.apc_alone))

    def test_unknown_scheme(self, runner):
        specs = mix_core_specs("hetero-5")
        with pytest.raises(ConfigurationError):
            scheduler_factory("bogus", runner.profiles(specs))


class TestProfiling:
    def test_alone_cache_hit(self, runner):
        specs = mix_core_specs("homo-1")
        a = runner.alone_point(specs[0])
        b = runner.alone_point(specs[0])
        assert a == b  # identical cached tuple

    def test_copies_share_profile(self, runner):
        specs = mix_core_specs("hetero-5", copies=2)
        # libquantum#0 and libquantum#1 must resolve to the same profile
        assert runner.alone_point(specs[0]) == runner.alone_point(specs[4])

    def test_profiles_workload_structure(self, runner):
        specs = mix_core_specs("hetero-5")
        wl = runner.profiles(specs)
        assert wl.n == 4
        assert all(a > 0 for a in wl.apc_alone)

    def test_measured_profile_close_to_paper(self, runner):
        """Measured alone APC within 10% of Table III for the fig-1 mix."""
        from repro.workloads.mixes import mix_paper_workload

        specs = mix_core_specs("hetero-5")
        measured = runner.profiles(specs).apc_alone
        paper = mix_paper_workload("hetero-5").apc_alone
        np.testing.assert_allclose(measured, paper, rtol=0.10)


class TestRunCaching:
    def test_run_cache(self, runner):
        r1 = runner.run("hetero-5", "equal")
        r2 = runner.run("hetero-5", "equal")
        assert r1 is r2

    def test_metrics_structure(self, runner):
        run = runner.run("hetero-5", "equal")
        assert set(run.metrics) == {"hsp", "minf", "wsp", "ipcsum"}
        assert run.speedups.shape == (4,)

    def test_normalization_baseline_is_one(self, runner):
        norm = runner.normalized_metrics("hetero-5", [NOPART])
        for v in norm[NOPART].values():
            assert v == pytest.approx(1.0)

    def test_all_scheme_names_cover_paper(self):
        assert set(ALL_SCHEME_NAMES) == {
            "nopart", "equal", "prop", "sqrt", "twothirds",
            "prio_apc", "prio_api",
        }
