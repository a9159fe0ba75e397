"""The persistent profiling cache eliminates repeat alone-mode runs.

Acceptance property for the cache subsystem: regenerating a figure a
second time (fresh :class:`Runner`, same configuration, same cache
directory) performs **zero** alone-mode simulations -- every profile is
served from disk.  Verified by counting actual ``simulate`` calls: the
dispatcher's task functions import ``repro.sim.engine.simulate`` when
called, so patching the engine module counts every in-process run.
"""

from __future__ import annotations

import repro.sim.engine as engine_mod
from repro.experiments.dispatch import execute_plan
from repro.experiments.plan import grid_plan
from repro.experiments.runner import Runner
from repro.sim.engine import SimConfig
from repro.sim.engine import simulate as _real_simulate
from repro.workloads.mixes import mix_core_specs

_QUICK = SimConfig(warmup_cycles=5_000.0, measure_cycles=40_000.0, seed=7)


class _CountingSimulate:
    """Wraps the real ``simulate``, tallying alone (1-core) calls."""

    def __init__(self):
        self.alone_calls = 0
        self.shared_calls = 0

    def __call__(self, specs, factory, config, **kwargs):
        if len(list(specs)) == 1:
            self.alone_calls += 1
        else:
            self.shared_calls += 1
        return _real_simulate(specs, factory, config, **kwargs)


def _count(monkeypatch) -> _CountingSimulate:
    counting = _CountingSimulate()
    monkeypatch.setattr(engine_mod, "simulate", counting)
    return counting


def test_second_regeneration_runs_zero_alone_sims(monkeypatch):
    specs = mix_core_specs("hetero-5")

    first = _count(monkeypatch)
    r1 = Runner(_QUICK)
    r1.run("hetero-5", "equal")
    assert first.alone_calls == len(specs)  # cold cache: one per benchmark
    assert first.shared_calls == 1

    second = _count(monkeypatch)
    r2 = Runner(_QUICK)  # fresh runner: an empty results table
    rerun = r2.run("hetero-5", "equal")
    assert second.alone_calls == 0  # everything served from disk
    assert second.shared_calls == 1  # shared-mode runs are not disk-cached

    base = r1.run("hetero-5", "equal")
    assert rerun.metrics == base.metrics  # cache hit == recompute


def test_cache_respects_opt_out(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    specs = mix_core_specs("hetero-2")

    for _ in range(2):
        counting = _count(monkeypatch)
        Runner(_QUICK).profiles(specs)
        assert counting.alone_calls == len(specs)  # never cached


def test_different_sim_config_is_a_cache_miss(monkeypatch):
    counting = _count(monkeypatch)
    Runner(_QUICK).profiles(mix_core_specs("hetero-5"))
    warm = counting.alone_calls
    assert warm > 0

    other = SimConfig(
        warmup_cycles=5_000.0, measure_cycles=40_000.0, seed=8
    )  # seed differs -> full config digest differs
    Runner(other).profiles(mix_core_specs("hetero-5"))
    assert counting.alone_calls == 2 * warm


def test_parallel_profiling_uses_the_shared_cache(monkeypatch):
    _, stats = execute_plan(
        grid_plan(("hetero-5",), ("nopart",), _QUICK), max_workers=2
    )
    assert stats.n_tasks > 0

    # a fresh Runner reads the profiles the pool wrote (one key scheme)
    counting = _count(monkeypatch)
    Runner(_QUICK).profiles(mix_core_specs("hetero-5"))
    assert counting.alone_calls == 0
