"""Tests for the sweep compiler (experiments.plan).

Compiling a plan performs zero simulations, so these tests exercise the
full registry cheaply: dedup accounting, dependency shape, digests.
"""

import json

import pytest

from repro.experiments.plan import (
    PLANNABLE_EXHIBITS,
    HeuristicPoint,
    RunPoint,
    compile_plan,
    default_config,
    grid_plan,
)
from repro.sim.engine import SimConfig
from repro.util.errors import ConfigurationError

TINY = SimConfig(warmup_cycles=5_000.0, measure_cycles=20_000.0, seed=3)


def tiny_factory(dram=None):
    if dram is None:
        return TINY
    return SimConfig(
        warmup_cycles=TINY.warmup_cycles,
        measure_cycles=TINY.measure_cycles,
        seed=TINY.seed,
        dram=dram,
    )


class TestCompile:
    def test_every_registered_exhibit_is_plannable(self):
        plan = compile_plan(PLANNABLE_EXHIBITS, quick=True)
        assert plan.n_unique > 0
        assert set(plan.demand) == set(PLANNABLE_EXHIBITS)

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_plan(("figure1", "figure99"))

    def test_compile_performs_no_simulation(self):
        # the exhibits' point declarations only touch workload metadata,
        # never the engine
        from repro import obs

        before = obs.registry().get_value("engine.runs")
        compile_plan(PLANNABLE_EXHIBITS, quick=True)
        assert obs.registry().get_value("engine.runs") == before


class TestDedup:
    def test_figure1_subset_of_figure2(self):
        """Figure 1's grid is a strict subset of Figure 2's, so adding
        figure1 to a figure2 plan must add zero unique tasks."""
        only2 = compile_plan(("figure2",), config_factory=tiny_factory)
        both = compile_plan(("figure2", "figure1"), config_factory=tiny_factory)
        assert both.n_unique == only2.n_unique
        assert both.n_demanded == only2.n_demanded + len(both.demand["figure1"])
        assert both.dedup_ratio > 0.0

    def test_overlapping_exhibits_dedup_counts(self):
        """table4 profiles every mix's benchmarks; figure2 demands the
        same profiles plus its runs -- the union must be smaller than
        the sum of the parts."""
        t4 = compile_plan(("table4",), config_factory=tiny_factory)
        f2 = compile_plan(("figure2",), config_factory=tiny_factory)
        union = compile_plan(("table4", "figure2"), config_factory=tiny_factory)
        assert union.n_unique < t4.n_unique + f2.n_unique
        # table4 is profiles-only and figure2 profiles all its mixes,
        # so the union adds nothing beyond figure2's own task set plus
        # table4-only benchmarks
        assert union.n_unique <= f2.n_unique + t4.n_unique
        assert union.n_demanded == t4.n_demanded + f2.n_demanded

    def test_full_registry_hits_dedup_target(self):
        """The headline acceptance number: planning every exhibit
        eliminates >= 30% of the naive per-experiment simulations."""
        plan = compile_plan(PLANNABLE_EXHIBITS, quick=True)
        assert plan.dedup_ratio >= 0.30
        assert plan.n_unique < plan.n_demanded

    def test_dedup_ratio_gauge_set(self):
        from repro import obs

        obs.reset()
        plan = compile_plan(("figure1", "figure2"), config_factory=tiny_factory)
        assert obs.registry().get_value("parallel.dedup_ratio") == pytest.approx(
            plan.dedup_ratio
        )
        obs.reset()


class TestDependencies:
    def test_runs_depend_only_on_their_mix_profiles(self):
        plan = grid_plan(("hetero-5",), ("nopart", "equal"), TINY)
        profiles = {d for d, t in plan.tasks.items() if t.kind == "profile"}
        runs = {d: t for d, t in plan.tasks.items() if t.kind == "run"}
        assert len(profiles) == 4  # hetero-5 has four distinct benchmarks
        for task in runs.values():
            assert set(task.deps) == profiles

    def test_profiles_have_no_deps(self):
        plan = compile_plan(("figure1",), config_factory=tiny_factory)
        for task in plan.tasks.values():
            if task.kind == "profile":
                assert task.deps == ()

    def test_heuristic_tasks_have_no_deps(self):
        plan = compile_plan(("extension",), config_factory=tiny_factory)
        kinds = plan.counts_by_kind()
        assert kinds.get("heuristic", 0) > 0
        for task in plan.tasks.values():
            if task.kind == "heuristic":
                assert task.deps == ()

    def test_tasks_listed_in_topological_order(self):
        """Profiles are inserted before anything that depends on them."""
        plan = compile_plan(
            ("figure1", "extension"), config_factory=tiny_factory
        )
        seen = set()
        for digest, task in plan.tasks.items():
            assert set(task.deps) <= seen
            seen.add(digest)


class TestDigests:
    def test_distinct_points_distinct_digests(self):
        a = RunPoint("hetero-5", "equal", 1, TINY)
        b = RunPoint("hetero-5", "equal", 2, TINY)
        c = HeuristicPoint("hetero-5", "parbs", 1, TINY)
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_same_point_same_digest_across_instances(self):
        cfg2 = SimConfig(
            warmup_cycles=5_000.0, measure_cycles=20_000.0, seed=3
        )
        assert (
            RunPoint("hetero-5", "equal", 1, TINY).digest()
            == RunPoint("hetero-5", "equal", 1, cfg2).digest()
        )


class TestSerialization:
    def test_to_json_round_trips_through_json(self, tmp_path):
        plan = compile_plan(("figure1", "table3"), config_factory=tiny_factory)
        path = tmp_path / "plan.json"
        plan.write(path)
        data = json.loads(path.read_text())
        assert data["n_unique"] == plan.n_unique
        assert data["n_demanded"] == plan.n_demanded
        assert data["dedup_ratio"] == pytest.approx(plan.dedup_ratio)
        assert set(data["tasks"]) == set(plan.tasks)
        for digest, task in plan.tasks.items():
            assert data["tasks"][digest]["kind"] == task.kind
            assert data["tasks"][digest]["deps"] == list(task.deps)

    def test_summary_mentions_dedup(self):
        plan = compile_plan(("figure1", "figure2"), config_factory=tiny_factory)
        text = plan.summary()
        assert "dedup ratio" in text
        assert "figure1" in text and "figure2" in text

    def test_default_config_quick_and_full(self):
        q = default_config(True)
        f = default_config(False)
        assert q.measure_cycles < f.measure_cycles
        assert q.seed == f.seed == 7
