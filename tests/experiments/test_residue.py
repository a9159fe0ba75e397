"""Each exhibit's point declaration agrees with its assembly.

An exhibit's ``points(cfg_for)`` declares the simulations its ``run``
reads, plus how many dependent simulations ``run`` performs itself (its
serial residue).  Assembled from the results of its own plan alone, an
exhibit must therefore simulate exactly its residue: a point it reads
but does not declare is simulated during assembly and counts as an
extra engine run.
"""

from __future__ import annotations

from repro import obs
from repro.experiments import (
    ablation,
    extension,
    figure1,
    figure2,
    figure3,
    figure4,
    predicted,
    regression,
    scorecard,
    sensitivity,
    table3,
    table4,
)
from repro.experiments.dispatch import execute_plan
from repro.experiments.plan import PLANNABLE_EXHIBITS, compile_plan
from repro.experiments.runner import Runner
from repro.sim.engine import SimConfig

TINY = SimConfig(warmup_cycles=5_000.0, measure_cycles=20_000.0, seed=3)


def tiny_factory(dram=None):
    return TINY if dram is None else SimConfig(
        warmup_cycles=TINY.warmup_cycles,
        measure_cycles=TINY.measure_cycles,
        seed=TINY.seed,
        dram=dram,
    )


#: exhibit -> its assembly from ``runner_for(config) -> Runner``, wired
#: as the CLI wires it
_ASSEMBLE = {
    "figure1": lambda runner_for: figure1.run(runner_for(tiny_factory())),
    "figure2": lambda runner_for: figure2.run(runner_for(tiny_factory())),
    "figure3": lambda runner_for: figure3.run(runner_for(tiny_factory())),
    "figure4": lambda runner_for: figure4.run(
        lambda dram: runner_for(tiny_factory(dram))
    ),
    "table3": lambda runner_for: table3.run(runner_for(tiny_factory())),
    "table4": lambda runner_for: table4.run(runner_for(tiny_factory())),
    "ablation": lambda runner_for: ablation.run(runner_for(tiny_factory())),
    "extension": lambda runner_for: extension.run(runner_for(tiny_factory())),
    "sensitivity": lambda runner_for: sensitivity.run(runner_factory=runner_for),
    "predicted": lambda runner_for: predicted.run(),
    "scorecard": lambda runner_for: scorecard.run(runner_for(tiny_factory())),
    "regression": lambda runner_for: regression.collect(runner_for(tiny_factory())),
}

#: the surrogate exhibit fits on its own sweep, run at the surrogate's
#: windows through ``run_sweep``; it reads no results table, so none of
#: its planned points is one it reads
_UNCHECKED = ("surrogate",)


def _engine_runs() -> float:
    return obs.registry().get_value("engine.runs") or 0.0


def test_every_plannable_exhibit_is_covered():
    assert set(_ASSEMBLE) | set(_UNCHECKED) == set(PLANNABLE_EXHIBITS)


def test_assembly_simulates_exactly_the_declared_residue(monkeypatch):
    plan = compile_plan(tuple(_ASSEMBLE), config_factory=tiny_factory)
    results, _ = execute_plan(plan, max_workers=2)
    # no SimCache during assembly: an undeclared profile is simulated
    # (and counted) rather than read from what the pool stored
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    simulated = {}
    for name, assemble in _ASSEMBLE.items():
        own = {d: results[d] for d in plan.demand[name]}
        before = _engine_runs()
        assemble(lambda cfg, own=own: Runner(cfg, own))
        simulated[name] = _engine_runs() - before
    assert simulated == {
        name: float(plan.serial_residue[name]) for name in _ASSEMBLE
    }
    assert plan.serial_residue["figure3"] > 0  # the check can see residue
