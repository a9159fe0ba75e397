"""Extension experiment: heuristic schedulers vs the derived optima.

The paper's related-work argument (Sec. II-A2, VII): heuristic QoS
schedulers (fair queueing, PAR-BS, TCM, ...) improve fairness and/or
throughput over unmanaged FCFS, but because they do not target an
explicit objective they cannot be optimal for any particular one -- the
analytical model's derived schemes should bracket them.

This experiment runs the two "lite" heuristic models (PAR-BS, TCM)
alongside No_partitioning and the four derived-optimal schemes on
heterogeneous mixes and checks exactly that bracketing:

    value(No_partitioning) <~ value(heuristic) <~ value(derived optimum)

for each metric (up to a small tolerance -- heuristics can tie a
derived optimum on metrics they happen to align with).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import ALL_METRICS
from repro.experiments.figure2 import OPTIMAL_FOR
from repro.experiments.plan import HeuristicPoint, profile_points, run_points
from repro.experiments.report import format_grid
from repro.experiments.runner import NOPART, Runner
from repro.sim.mc.parbs import PARBSScheduler
from repro.sim.mc.tcm import TCMScheduler
from repro.workloads.mixes import HETERO_MIXES

__all__ = [
    "HEURISTICS",
    "HEURISTIC_FACTORIES",
    "ExtensionResult",
    "points",
    "run",
    "render",
]

HEURISTICS = ("parbs", "tcm")


def _parbs_factory(n: int) -> PARBSScheduler:
    return PARBSScheduler(n)


def _tcm_factory(n: int) -> TCMScheduler:
    return TCMScheduler(n)


#: module-level (picklable) factories the dispatcher's heuristic tasks
#: resolve by name
HEURISTIC_FACTORIES = {"parbs": _parbs_factory, "tcm": _tcm_factory}


@dataclass(frozen=True)
class ExtensionResult:
    """{mix: {scheduler/scheme: {metric: value normalized to nopart}}}"""

    grid: dict[str, dict[str, dict[str, float]]]
    mixes: tuple[str, ...]

    def average(self, name: str, metric: str) -> float:
        return float(np.mean([self.grid[m][name][metric] for m in self.mixes]))

    def brackets(self) -> dict[str, tuple[float, float, float]]:
        """Per metric: (nopart, best heuristic, derived optimum) averages."""
        out = {}
        for metric, optimal in OPTIMAL_FOR.items():
            heur = max(self.average(h, metric) for h in HEURISTICS)
            out[metric] = (1.0, heur, self.average(optimal, metric))
        return out


def points(cfg_for):
    """The hetero mixes' profiles, No_partitioning and derived-optimum
    runs, and one run per heuristic scheduler."""
    cfg = cfg_for()
    schemes = (NOPART,) + tuple(sorted(set(OPTIMAL_FOR.values())))
    return (
        profile_points(HETERO_MIXES, cfg)
        + run_points(HETERO_MIXES, schemes, cfg)
        + [HeuristicPoint(mix, h, 1, cfg) for mix in HETERO_MIXES for h in HEURISTICS]
    ), 0


def run(runner: Runner, mixes: tuple[str, ...] = HETERO_MIXES) -> ExtensionResult:
    """Run heuristics + derived optima on the given mixes."""
    grid: dict[str, dict[str, dict[str, float]]] = {}
    derived = sorted(set(OPTIMAL_FOR.values()))
    for mix in mixes:
        base = runner.run(mix, NOPART)
        row: dict[str, dict[str, float]] = {}
        for scheme in derived:
            m = runner.run(mix, scheme).metrics
            row[scheme] = {
                k: m[k] / base.metrics[k] if base.metrics[k] > 0 else float("inf")
                for k in m
            }
        for name in HEURISTICS:
            sim = runner.heuristic(mix, name)
            row[name] = {
                m.name: (
                    m(sim.ipc_shared, base.ipc_alone) / base.metrics[m.name]
                    if base.metrics[m.name] > 0
                    else float("inf")
                )
                for m in ALL_METRICS
            }
        grid[mix] = row
    return ExtensionResult(grid=grid, mixes=tuple(mixes))


def render(result: ExtensionResult) -> str:
    columns = sorted(set(OPTIMAL_FOR.values())) + list(HEURISTICS)
    parts = []
    for metric in [m.name for m in ALL_METRICS]:
        panel = {
            mix: {c: result.grid[mix][c][metric] for c in columns}
            for mix in result.mixes
        }
        panel["average"] = {c: result.average(c, metric) for c in columns}
        parts.append(
            format_grid(
                panel,
                row_label="workload",
                columns=columns,
                title=f"Extension: {metric} normalized to No_partitioning",
            )
        )
    lines = ["", "bracketing (nopart <= heuristic <= derived optimum), averages:"]
    for metric, (np_v, heur, opt) in result.brackets().items():
        ok = np_v - 0.05 <= heur <= opt + 0.05
        lines.append(
            f"  {metric:7s}: 1.000 <= {heur:.3f} <= {opt:.3f}"
            f"  {'OK' if ok else 'VIOLATED'}"
        )
    return "\n\n".join(parts) + "\n" + "\n".join(lines)
