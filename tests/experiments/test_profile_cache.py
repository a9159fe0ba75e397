"""The persistent profiling cache eliminates repeat alone-mode runs.

Acceptance property for the cache subsystem: regenerating a figure a
second time (fresh :class:`Runner`, same configuration, same cache
directory) performs **zero** alone-mode simulations -- every profile is
served from disk.  Verified by counting actual ``simulate`` calls.
"""

from __future__ import annotations

import repro.experiments.runner as runner_mod
from repro.experiments.dispatch import execute_plan
from repro.experiments.plan import grid_plan
from repro.experiments.runner import Runner
from repro.sim.engine import SimConfig
from repro.sim.engine import simulate as _real_simulate
from repro.util.cache import SimCache
from repro.workloads.mixes import mix_core_specs

_QUICK = SimConfig(warmup_cycles=5_000.0, measure_cycles=40_000.0, seed=7)


class _CountingSimulate:
    """Wraps the real ``simulate``, tallying alone (1-core) calls."""

    def __init__(self):
        self.alone_calls = 0
        self.shared_calls = 0

    def __call__(self, specs, factory, config):
        if len(list(specs)) == 1:
            self.alone_calls += 1
        else:
            self.shared_calls += 1
        return _real_simulate(specs, factory, config)


def test_second_regeneration_runs_zero_alone_sims(monkeypatch):
    specs = mix_core_specs("hetero-5")

    first = _CountingSimulate()
    monkeypatch.setattr(runner_mod, "simulate", first)
    r1 = Runner(_QUICK)
    r1.run("hetero-5", "equal")
    assert first.alone_calls == len(specs)  # cold cache: one per benchmark
    assert first.shared_calls == 1

    second = _CountingSimulate()
    monkeypatch.setattr(runner_mod, "simulate", second)
    r2 = Runner(_QUICK)  # fresh runner: in-memory caches are empty
    rerun = r2.run("hetero-5", "equal")
    assert second.alone_calls == 0  # everything served from disk
    assert second.shared_calls == 1  # shared-mode runs are not disk-cached

    base = r1.run("hetero-5", "equal")
    assert rerun.metrics == base.metrics  # cache hit == recompute


def test_cache_respects_opt_out(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    specs = mix_core_specs("hetero-2")

    for _ in range(2):
        counting = _CountingSimulate()
        monkeypatch.setattr(runner_mod, "simulate", counting)
        Runner(_QUICK).profiles(specs)
        assert counting.alone_calls == len(specs)  # never cached


def test_different_sim_config_is_a_cache_miss(monkeypatch):
    counting = _CountingSimulate()
    monkeypatch.setattr(runner_mod, "simulate", counting)
    Runner(_QUICK).profiles(mix_core_specs("hetero-5"))
    warm = counting.alone_calls
    assert warm > 0

    other = SimConfig(
        warmup_cycles=5_000.0, measure_cycles=40_000.0, seed=8
    )  # seed differs -> full config digest differs
    Runner(other).profiles(mix_core_specs("hetero-5"))
    assert counting.alone_calls == 2 * warm


def test_parallel_profiling_uses_the_shared_cache():
    results = execute_plan(
        grid_plan(("hetero-5",), ("nopart",), _QUICK), max_workers=2
    )
    results.close()
    assert results.stats.n_tasks > 0

    # the serial Runner reads the entries the dispatcher wrote (shared
    # key scheme)
    r = Runner(_QUICK)
    for spec in mix_core_specs("hetero-5"):
        assert r.disk_cache.get(r._alone_key(spec)) is not None


def test_runner_exposes_cache_instance():
    r = Runner(_QUICK)
    assert isinstance(r.disk_cache, SimCache)
