"""Engine and runner wiring into repro.obs."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments.runner import Runner
from repro.sim.cpu import CoreSpec
from repro.sim.engine import SimConfig, simulate
from repro.sim.mc.fcfs import FCFSScheduler
from repro.workloads.spec import benchmark


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    obs.configure(enabled=True, sample=1.0)
    yield
    obs.reset()


def _spec(name="app", api=0.02):
    return CoreSpec(name=name, api=api, ipc_peak=0.5, mlp=8)


CFG = SimConfig(warmup_cycles=10_000, measure_cycles=60_000, seed=3)


class TestEngineSpans:
    def test_run_span_wraps_warmup_and_measure(self):
        simulate([_spec()], lambda n: FCFSScheduler(n), CFG)
        by = {s.name: s for s in obs.tracer().spans()}
        run = by["engine.run"]
        assert run.attrs["scheduler"] == "fcfs"
        assert run.attrs["apps"] == 1
        assert run.attrs["seed"] == 3
        assert by["engine.warmup"].parent_id == run.span_id
        assert by["engine.measure"].parent_id == run.span_id
        # warmup strictly precedes measurement
        assert by["engine.warmup"].ts_us < by["engine.measure"].ts_us

    def test_no_warmup_span_when_warmup_zero(self):
        cfg = SimConfig(warmup_cycles=0, measure_cycles=60_000, seed=3)
        simulate([_spec()], lambda n: FCFSScheduler(n), cfg)
        names = [s.name for s in obs.tracer().spans()]
        assert "engine.warmup" not in names
        assert "engine.measure" in names

    def test_scheduler_round_spans_per_epoch(self):
        cfg = SimConfig(
            warmup_cycles=0, measure_cycles=60_000, seed=3,
            epoch_cycles=20_000,
        )
        simulate([_spec()], lambda n: FCFSScheduler(n), cfg)
        rounds = obs.tracer().find("engine.scheduler_round")
        assert len(rounds) >= 2
        by = {s.name: s for s in obs.tracer().spans()}
        for r in rounds:
            assert r.parent_id == by["engine.measure"].span_id

    def test_counters_flushed_once_per_run(self):
        simulate([_spec()], lambda n: FCFSScheduler(n), CFG)
        reg = obs.registry()
        assert reg.get_value("engine.runs") == 1.0
        assert reg.get_value("engine.events") > 100
        assert reg.get_value("engine.simulated_cycles") == 60_000
        simulate([_spec()], lambda n: FCFSScheduler(n), CFG)
        assert reg.get_value("engine.runs") == 2.0

    def test_disabled_tracing_still_counts(self):
        obs.configure(enabled=False)
        simulate([_spec()], lambda n: FCFSScheduler(n), CFG)
        assert len(obs.tracer()) == 0
        assert obs.registry().get_value("engine.runs") == 1.0


class TestRunnerWiring:
    """The Runner simulates through the dispatcher's task code, in this
    process, under the same ``parallel.*_task`` spans as the pool."""

    def test_profile_cache_counters_and_span(self):
        spec = benchmark("gobmk").core_spec()  # a point is keyed by name
        runner = Runner(CFG)
        runner.alone_point(spec)
        reg = obs.registry()
        (task,) = obs.tracer().find("parallel.profile_task")
        assert task.attrs == {"bench": "gobmk"}
        assert reg.get_value("engine.runs") == 1.0
        # a second read hits the runner's results table
        runner.alone_point(spec)
        assert reg.get_value("plan.cache_hits") is None
        # a fresh runner reads the persistent cache instead
        Runner(CFG).alone_point(spec)
        assert reg.get_value("plan.cache_hits") == 1.0
        assert reg.get_value("engine.runs") == 1.0
        assert len(obs.tracer().find("parallel.profile_task")) == 1

    def test_run_point_span_and_counter(self):
        with obs.span("caller"):
            Runner(CFG).run("homo-1", "nopart")
        # nothing drains the caller's trace: its own span is recorded
        (caller,) = obs.tracer().find("caller")
        (run,) = obs.tracer().find("parallel.run_task")
        assert run.attrs == {"mix": "homo-1", "scheme": "nopart"}
        profiles = obs.tracer().find("parallel.profile_task")
        assert len(profiles) == 4
        assert obs.registry().get_value("engine.runs") == 5.0
        # in-process tasks nest under the caller's span, in this process
        for task in [run, *profiles]:
            assert task.parent_id == caller.span_id
            assert task.pid == os.getpid()
