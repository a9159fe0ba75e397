"""Tests for the cost-aware DAG dispatcher (experiments.dispatch).

The load-bearing property: a plan-executed grid is *bit-identical*
(``==``, not allclose) to the serial Runner's -- the worker entry points
reuse the serial Runner's wiring, so equality is exact, and these tests
assert it exactly.
"""

import os

import pytest

from repro.experiments.dispatch import (
    CostModel,
    Dispatcher,
    execute_plan,
    profile_task,
    resolve_workers,
    run_task,
)
from repro.experiments.plan import compile_plan, grid_plan
from repro.experiments.runner import Runner
from repro.sim.engine import SimConfig
from repro.util.errors import ConfigurationError

TINY = SimConfig(warmup_cycles=5_000.0, measure_cycles=30_000.0, seed=3)


def tiny_factory(dram=None):
    assert dram is None
    return TINY


@pytest.fixture()
def dispatcher():
    d = Dispatcher(max_workers=2)
    yield d
    d.shutdown()


class TestResolveWorkers:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_none_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) is None

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)


class TestValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            Dispatcher(max_workers=0)


class TestWorkerFunctions:
    def test_profile_task_matches_runner(self):
        name, apc, ipc = profile_task(("gobmk", TINY))
        assert name == "gobmk"
        from repro.workloads.spec import benchmark

        serial = Runner(TINY)
        apc_s, ipc_s = serial.alone_point(benchmark("gobmk").core_spec())
        assert apc == pytest.approx(apc_s)
        assert ipc == pytest.approx(ipc_s)

    def test_run_task_returns_keyed_run(self):
        alone = {
            b: profile_task((b, TINY))[1:]
            for b in ("libquantum", "milc", "gromacs", "gobmk")
        }
        key, run = run_task(("hetero-5", "equal", 1, TINY, alone))
        assert key == ("hetero-5", "equal", 1)
        assert run.sim.total_apc > 0
        assert set(run.metrics) == {"hsp", "minf", "wsp", "ipcsum"}


class TestCostModel:
    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cost_model.json"
        model = CostModel(path)
        model.observe("digest-a", "run", 2.0)
        model.observe("digest-b", "profile", 0.25)
        assert model.save()

        fresh = CostModel(path)
        plan = grid_plan(("hetero-5",), ("equal",), TINY)

        class FakeTask:
            digest = "digest-a"
            kind = "run"
            point = next(iter(plan.tasks.values())).point

        assert fresh.estimate(FakeTask()) == pytest.approx(2.0)

    def test_ema_smooths_repeat_observations(self, tmp_path):
        model = CostModel(tmp_path / "cm.json")
        model.observe("d", "run", 1.0)
        model.observe("d", "run", 3.0)

        class T:
            digest = "d"
            kind = "run"
            point = None

        assert model.estimate(T()) == pytest.approx(2.0)  # alpha = 0.5

    def test_unknown_digest_falls_back_to_kind_scaled_by_copies(
        self, tmp_path
    ):
        model = CostModel(tmp_path / "cm.json")
        model.observe("other", "run", 4.0)

        class T:
            digest = "unseen"
            kind = "run"

            class point:
                copies = 2

        # per-kind mean (seeded at 4.0) scaled by 2 copies
        assert model.estimate(T()) == pytest.approx(8.0)

    def test_disabled_by_no_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        path = tmp_path / "cm.json"
        model = CostModel(path)
        model.observe("d", "run", 1.0)
        assert not model.save()
        assert not path.exists()

    def test_save_merges_with_concurrent_writer(self, tmp_path):
        path = tmp_path / "cm.json"
        ours = CostModel(path)
        theirs = CostModel(path)
        ours.observe("mine", "run", 1.0)
        theirs.observe("theirs", "run", 2.0)
        assert theirs.save()
        assert ours.save()
        merged = CostModel(path)
        assert "mine" in merged._by_digest
        assert "theirs" in merged._by_digest


class TestExecution:
    def test_grid_identity_exact(self, dispatcher):
        """Plan-executed grid == serial Runner grid, field for field."""
        mixes = ("hetero-5",)
        schemes = ("nopart", "equal")
        plan = grid_plan(mixes, schemes, TINY)
        results, stats = dispatcher.execute(plan)
        serial = Runner(TINY).run_grid(mixes, schemes)
        for digest, task in plan.tasks.items():
            if task.kind != "run":
                continue
            got = results[digest]
            want = serial[task.point.mix][task.point.scheme]
            assert got.sim == want.sim  # exact dataclass equality
            assert list(got.ipc_alone) == list(want.ipc_alone)
            assert list(got.apc_alone) == list(want.apc_alone)
            assert got.metrics == want.metrics
        assert stats.n_tasks == len(plan.tasks)
        assert set(stats.task_s) == set(plan.tasks)

    def test_profiles_complete_before_dependent_runs(self, dispatcher):
        plan = grid_plan(("hetero-5", "homo-1"), ("nopart",), TINY)
        dispatcher.execute(plan)
        order = dispatcher.last_execution_order
        position = {d: i for i, d in enumerate(order)}
        for digest, task in plan.tasks.items():
            if task.kind == "run":
                assert all(
                    position[dep] < position[digest] for dep in task.deps
                )

    def test_second_execution_hits_profile_cache(self, dispatcher):
        plan = grid_plan(("hetero-5",), ("nopart",), TINY)
        _, first = dispatcher.execute(plan)
        _, second = dispatcher.execute(plan)
        n_profiles = sum(
            1 for t in plan.tasks.values() if t.kind == "profile"
        )
        assert first.n_cache_hits == 0
        assert second.n_cache_hits == n_profiles

    def test_cost_model_learned_and_persisted(self, dispatcher):
        from repro.experiments.dispatch import COST_MODEL_FILENAME
        from repro.util.cache import default_cache_dir

        plan = grid_plan(("hetero-5",), ("equal",), TINY)
        dispatcher.execute(plan)
        path = default_cache_dir() / COST_MODEL_FILENAME
        assert path.exists()
        model = CostModel(path)
        for digest, task in plan.tasks.items():
            assert model.estimate(task) > 0
            assert digest in model._by_digest

    def test_steals_counted_for_dependent_waves(self, dispatcher):
        """Run tasks unblock mid-flight and are pulled by idle workers."""
        plan = grid_plan(("hetero-5",), ("nopart", "equal"), TINY)
        _, stats = dispatcher.execute(plan)
        n_runs = sum(1 for t in plan.tasks.values() if t.kind == "run")
        assert stats.n_steals == n_runs

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_parent_holds_no_fd_per_result(self, dispatcher):
        """Results come back by value: repeated executions on one pool
        leave the parent's open-descriptor count flat."""
        plan = grid_plan(("hetero-5",), ("nopart", "equal"), TINY)
        counts = []
        for _ in range(4):
            _, stats = dispatcher.execute(plan)
            counts.append(len(os.listdir("/proc/self/fd")))
        assert counts[1:] == [counts[0]] * 3, counts
        assert stats.n_shm_segments == 0


class TestTelemetry:
    """Worker spans ship back and merge into one coherent trace."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        from repro import obs

        obs.reset()
        obs.configure(enabled=True, sample=1.0)
        yield
        obs.reset()

    def test_execute_merges_worker_spans_with_parents(self, dispatcher):
        from repro import obs

        plan = grid_plan(("homo-1",), ("nopart", "equal"), TINY)
        with obs.span("plan.dispatch") as phase:
            dispatcher.execute(plan, parent_span_id=phase.span_id)
        by_name = {}
        for s in obs.tracer().spans():
            by_name.setdefault(s.name, []).append(s)

        caller = by_name["plan.dispatch"][0]
        run_tasks = by_name["parallel.run_task"]
        assert len(run_tasks) == 2
        assert all(t.parent_id == caller.span_id for t in run_tasks)
        # the simulations really ran in other processes
        assert all(t.pid != caller.pid for t in run_tasks)
        # each worker task wraps its own engine.run
        engine_parents = {s.parent_id for s in by_name["engine.run"]
                          if s.pid != caller.pid}
        assert engine_parents <= {t.span_id for t in run_tasks} | {
            p.span_id for p in by_name.get("parallel.profile_task", [])
        }

        reg = obs.registry()
        assert reg.get_value("parallel.workers") == 2.0
        assert reg.get_value("parallel.tasks") >= 2.0
        util = reg.get_value("parallel.worker_utilization")
        assert 0.0 < util <= 1.0


class TestExecutePlan:
    def test_multi_exhibit_plan_warms_runner(self):
        plan = compile_plan(
            ("figure1", "table3"), config_factory=tiny_factory
        )
        results = execute_plan(plan, max_workers=2)
        warmed = results.runner(TINY)
        serial = Runner(TINY)
        # figure1's grid out of the warmed runner: exact equality
        run_w = warmed.run("hetero-5", "equal")
        run_s = serial.run("hetero-5", "equal")
        assert run_w.sim == run_s.sim
        assert run_w.metrics == run_s.metrics
        # profiles warmed too: table3's benchmarks resolve without
        # new simulations (alone cache already has the digest)
        from repro.workloads.spec import benchmark

        spec = benchmark("gobmk").core_spec()
        assert warmed._alone_key(spec) in warmed._alone_cache

    def test_heuristic_sims_scattered(self):
        plan = compile_plan(("extension",), config_factory=tiny_factory)
        results = execute_plan(plan, max_workers=2)
        sims = results.heuristic_sims(TINY)
        assert sims  # parbs/tcm on the hetero mixes
        for (mix, sched, copies), sim in sims.items():
            assert sched in ("parbs", "tcm")
            assert copies == 1
            assert sim.total_apc > 0

    def test_exhibit_output_identity_figure1(self):
        """End to end: the rendered figure1 text from a plan-warmed
        runner equals the serial rendering exactly."""
        from repro.experiments import figure1

        plan = compile_plan(("figure1",), config_factory=tiny_factory)
        results = execute_plan(plan, max_workers=2)
        planned_text = figure1.render(figure1.run(results.runner(TINY)))
        serial_text = figure1.render(figure1.run(Runner(TINY)))
        assert planned_text == serial_text
