"""Figure 2 (main evaluation): 4 metrics x 6 schemes x 14 workloads.

Reproduces the paper's Fig. 2(a)-(d): for every Table IV mix, the value
of each metric under Equal, Proportional, Square_root, 2/3_power,
Priority_APC and Priority_API, normalized to No_partitioning, plus the
homo/hetero averages -- including the headline numbers of the abstract:
average hetero-workload improvement of each derived-optimal scheme over
No_partitioning and over Equal (paper: Hsp 20.3%/2.1%, MinF
49.8%/38.7%, Wsp 32.8%/7.6%, IPCsum 64.2%/24%).

Shape criteria (what reproduction means here -- the substrate is a
different simulator, so factors differ):

* per metric, the paper's derived-optimal scheme has the highest hetero
  average among the six;
* priority schemes collapse on fairness metrics (starvation);
* 2/3_power lies between Square_root and Proportional on every metric;
* homo-mix spreads across schemes are much smaller than hetero spreads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import ALL_METRICS
from repro.experiments.plan import profile_points, run_points
from repro.experiments.report import format_grid, pct
from repro.experiments.runner import NOPART, Runner
from repro.workloads.mixes import HETERO_MIXES, HOMO_MIXES

__all__ = ["FIG2_SCHEMES", "OPTIMAL_FOR", "Figure2Result", "points", "run", "render"]

FIG2_SCHEMES: tuple[str, ...] = (
    "equal", "prop", "sqrt", "twothirds", "prio_apc", "prio_api",
)

#: metric -> the paper's derived-optimal scheme
OPTIMAL_FOR: dict[str, str] = {
    "hsp": "sqrt",
    "minf": "prop",
    "wsp": "prio_apc",
    "ipcsum": "prio_api",
}


@dataclass(frozen=True)
class Figure2Result:
    """Normalized (to No_partitioning) metric grids per mix."""

    #: {mix: {scheme: {metric: normalized value}}}
    grid: dict[str, dict[str, dict[str, float]]]

    @property
    def hetero_mixes(self) -> tuple[str, ...]:
        """Hetero mixes actually present in this grid."""
        return tuple(m for m in self.grid if m.startswith("hetero"))

    @property
    def homo_mixes(self) -> tuple[str, ...]:
        return tuple(m for m in self.grid if m.startswith("homo"))

    def average(self, mixes: tuple[str, ...], scheme: str, metric: str) -> float:
        """Arithmetic mean of the normalized metric over ``mixes``."""
        return float(np.mean([self.grid[m][scheme][metric] for m in mixes]))

    def hetero_average(self, scheme: str, metric: str) -> float:
        return self.average(self.hetero_mixes, scheme, metric)

    def homo_average(self, scheme: str, metric: str) -> float:
        return self.average(self.homo_mixes, scheme, metric)

    def headline(self) -> dict[str, tuple[float, float]]:
        """{metric: (gain over No_partitioning, gain over Equal)} for the
        derived-optimal scheme, hetero average -- the abstract's numbers."""
        out = {}
        for metric, scheme in OPTIMAL_FOR.items():
            over_nopart = self.hetero_average(scheme, metric)
            over_equal = over_nopart / self.hetero_average("equal", metric)
            out[metric] = (over_nopart, over_equal)
        return out

    def spread(self, mixes: tuple[str, ...], metric: str) -> float:
        """Mean over mixes of (max - min) normalized value across schemes;
        the paper's homo-vs-hetero diversity observation."""
        spreads = []
        for m in mixes:
            vals = [self.grid[m][s][metric] for s in FIG2_SCHEMES]
            spreads.append(max(vals) - min(vals))
        return float(np.mean(spreads))


def points(cfg_for):
    """Every mix's profiles and runs, No_partitioning first."""
    cfg = cfg_for()
    mixes = HOMO_MIXES + HETERO_MIXES
    return profile_points(mixes, cfg) + run_points(mixes, (NOPART,) + FIG2_SCHEMES, cfg), 0


def run(runner: Runner, mixes: tuple[str, ...] | None = None) -> Figure2Result:
    """Execute the full Figure 2 grid."""
    mixes = mixes or (HOMO_MIXES + HETERO_MIXES)
    grid = {
        mix: runner.normalized_metrics(mix, FIG2_SCHEMES) for mix in mixes
    }
    return Figure2Result(grid=grid)


def render(result: Figure2Result) -> str:
    """Four panels (one per metric), paper layout: hetero rows then homo."""
    parts = []
    mixes = list(result.grid)
    for metric in [m.name for m in ALL_METRICS]:
        panel = {
            mix: {s: result.grid[mix][s][metric] for s in FIG2_SCHEMES}
            for mix in mixes
        }
        hetero = [m for m in mixes if m.startswith("hetero")]
        homo = [m for m in mixes if m.startswith("homo")]
        if hetero:
            panel["hetero-avg"] = {
                s: result.average(tuple(hetero), s, metric) for s in FIG2_SCHEMES
            }
        if homo:
            panel["homo-avg"] = {
                s: result.average(tuple(homo), s, metric) for s in FIG2_SCHEMES
            }
        parts.append(
            format_grid(
                panel,
                row_label="workload",
                columns=list(FIG2_SCHEMES),
                title=f"Figure 2 panel: {metric} normalized to No_partitioning",
            )
        )
    headline = result.headline()
    lines = ["", "headline (hetero averages, derived-optimal scheme):"]
    for metric, (over_np, over_eq) in headline.items():
        lines.append(
            f"  {metric:6s} ({OPTIMAL_FOR[metric]:8s}): {pct(over_np)} over "
            f"No_partitioning, {pct(over_eq)} over Equal"
        )
    return "\n\n".join(parts) + "\n" + "\n".join(lines)
