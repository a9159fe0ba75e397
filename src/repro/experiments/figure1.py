"""Figure 1 (motivation): one hetero mix, five schemes, four metrics.

The paper's motivating experiment runs libquantum, milc, gromacs and
gobmk (= Table IV's hetero-5) on the four-core DDR2-400 CMP under the
Equal, Proportional, Square_root, Priority_API and Priority_APC schemes
and reports all four metrics normalized to No_partitioning.

The claims this figure must reproduce (Sec. II-B):

* Square_root yields the highest harmonic weighted speedup;
* Proportional has the best minimum fairness;
* Priority_APC is best for weighted speedup, Priority_API for IPCsum;
* Equal improves most metrics over No_partitioning but is optimal for
  none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import ALL_METRICS
from repro.experiments.plan import profile_points, run_points
from repro.experiments.report import format_grid
from repro.experiments.runner import NOPART, Runner

__all__ = ["FIG1_MIX", "FIG1_SCHEMES", "Figure1Result", "points", "run", "render"]

FIG1_MIX = "hetero-5"  # libquantum-milc-gromacs-gobmk
FIG1_SCHEMES: tuple[str, ...] = ("equal", "prop", "sqrt", "prio_api", "prio_apc")


@dataclass(frozen=True)
class Figure1Result:
    """Normalized metric values: {scheme: {metric: value}}."""

    normalized: dict[str, dict[str, float]]

    def best_scheme(self, metric: str) -> str:
        """Scheme with the highest normalized value of ``metric``."""
        return max(self.normalized, key=lambda s: self.normalized[s][metric])


def points(cfg_for):
    """The mix's profiles and its runs, No_partitioning first."""
    cfg = cfg_for()
    mixes = (FIG1_MIX,)
    return profile_points(mixes, cfg) + run_points(mixes, (NOPART,) + FIG1_SCHEMES, cfg), 0


def run(runner: Runner) -> Figure1Result:
    """Execute the Figure 1 grid on the simulator."""
    normalized = runner.normalized_metrics(FIG1_MIX, FIG1_SCHEMES)
    return Figure1Result(normalized=normalized)


def render(result: Figure1Result) -> str:
    """Figure 1 as text: the value table plus one bar panel per metric
    (the paper's grouped-bars layout, in ASCII)."""
    from repro.experiments.plot import bar_chart

    cols = [m.name for m in ALL_METRICS]
    table = format_grid(
        result.normalized,
        row_label="scheme",
        columns=cols,
        title=(
            "Figure 1: normalized performance vs No_partitioning "
            f"({FIG1_MIX}: libquantum-milc-gromacs-gobmk, DDR2-400)"
        ),
    )
    panels = []
    for m in ALL_METRICS:
        series = {s: result.normalized[s][m.name] for s in FIG1_SCHEMES}
        panels.append(bar_chart(series, title=f"-- {m.label} --", width=36))
    winners = ", ".join(
        f"{m.name}: {result.best_scheme(m.name)}" for m in ALL_METRICS
    )
    return (
        table
        + "\n\n"
        + "\n\n".join(panels)
        + f"\n\nbest scheme per metric -> {winners}"
    )
