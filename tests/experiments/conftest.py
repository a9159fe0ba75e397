"""Shared runner fixtures for the experiment tests.

The session-scoped runner amortizes alone-run profiling and shared-mode
simulations across all experiment tests; windows are shorter than the
paper-scale CLI defaults but long enough that the shape assertions are
far outside sampling noise.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import Runner
from repro.sim.engine import SimConfig


@pytest.fixture(scope="session")
def runner() -> Runner:
    return Runner(
        SimConfig(warmup_cycles=100_000.0, measure_cycles=400_000.0, seed=7)
    )


@pytest.fixture(scope="session")
def mvs_card(runner):
    """The model-vs-simulator card over Figure 2's grid."""
    from repro.experiments import ablation

    return ablation.model_vs_sim(runner)
