"""Model-predicted Figure 2 -- the evaluation without the simulator.

The paper's pitch is that the *analytical model* answers partitioning
questions; the simulator only validates it.  This module produces the
entire Figure-2 grid from the model alone (Table III reference profiles,
closed-form allocations -- microseconds per cell instead of seconds),
normalized to Equal partitioning (the model has no first-principles
No_partitioning; FCFS is an emergent scheduler behaviour, so Equal is
the natural model-side baseline).  It runs no simulation; the
model-vs-simulator card (:func:`repro.experiments.ablation.model_vs_sim`,
row (c)) scores the same predictions against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import ALL_METRICS
from repro.core.model import AnalyticalModel
from repro.core.partitioning import default_schemes
from repro.experiments.report import format_grid
from repro.util.errors import ConfigurationError
from repro.workloads.mixes import HETERO_MIXES, HOMO_MIXES, mix_paper_workload

__all__ = ["PredictedResult", "points", "run", "render"]

#: the model-side baseline (see module docstring)
BASELINE = "equal"

#: the utilized DDR2-400 bandwidth the simulator measures, in APC
#: (~94% of the 0.01 APC peak)
UTILIZED_BANDWIDTH = 0.0094


@dataclass(frozen=True)
class PredictedResult:
    """{mix: {scheme: {metric: value normalized to Equal}}} -- model only."""

    grid: dict[str, dict[str, dict[str, float]]]
    total_bandwidth: float

    def average(self, mixes, scheme: str, metric: str) -> float:
        return float(np.mean([self.grid[m][scheme][metric] for m in mixes]))


def points(cfg_for):
    """The model-only grid simulates nothing."""
    return [], 0


def run(
    total_bandwidth: float = UTILIZED_BANDWIDTH,
    mixes: tuple[str, ...] | None = None,
) -> PredictedResult:
    """Predict the grid from Table III reference profiles."""
    if total_bandwidth <= 0:
        raise ConfigurationError("total_bandwidth must be positive")
    mixes = mixes or (HOMO_MIXES + HETERO_MIXES)
    schemes = default_schemes()
    grid: dict[str, dict[str, dict[str, float]]] = {}
    for mix in mixes:
        wl = mix_paper_workload(mix)
        model = AnalyticalModel(wl, total_bandwidth)
        raw = {
            name: model.operating_point(s).evaluate_all()
            for name, s in schemes.items()
        }
        base = raw[BASELINE]
        grid[mix] = {
            name: {
                k: (v[k] / base[k] if base[k] > 0 else float("inf"))
                for k in v
            }
            for name, v in raw.items()
        }
    return PredictedResult(grid=grid, total_bandwidth=total_bandwidth)


def render(predicted: PredictedResult) -> str:
    parts = []
    mixes = list(predicted.grid)
    schemes = list(default_schemes())
    for metric in [m.name for m in ALL_METRICS]:
        panel = {
            mix: {s: predicted.grid[mix][s][metric] for s in schemes}
            for mix in mixes
        }
        parts.append(
            format_grid(
                panel,
                row_label="workload",
                columns=schemes,
                title=(
                    f"Model-predicted {metric} normalized to Equal "
                    f"(B = {predicted.total_bandwidth:g} APC, no simulation)"
                ),
            )
        )
    return "\n\n".join(parts)
