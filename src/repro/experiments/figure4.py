"""Figure 4: scalability with off-chip bandwidth (paper Sec. VI-C).

Bandwidth scales 3.2 -> 6.4 -> 12.8 GB/s by raising the bus frequency
only (latency parameters unchanged); core count scales 4 -> 8 -> 16 by
running 1/2/4 copies of each application of the hetero mixes.  For each
metric, the derived-optimal scheme's hetero-average performance is
normalized to *Equal* partitioning.

The claim to reproduce: the normalized gains of every optimal scheme
*increase* with bandwidth, because bandwidth-bound applications' alone
APC grows much faster than latency-bound ones' (lbm +83.7% vs leslie3d
+24.5% at 2x in the paper), making the scaled workloads more
heterogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.figure2 import OPTIMAL_FOR
from repro.experiments.plan import profile_points, run_points
from repro.experiments.report import format_table
from repro.experiments.runner import Runner
from repro.sim.dram.config import ddr2_400, ddr2_800, ddr2_1600
from repro.workloads.mixes import HETERO_MIXES

__all__ = ["SCALE_POINTS", "Figure4Result", "points", "run", "render"]

#: (label, DRAM config factory, application copies)
SCALE_POINTS: tuple[tuple[str, object, int], ...] = (
    ("3.2GB/s x4cores", ddr2_400, 1),
    ("6.4GB/s x8cores", ddr2_800, 2),
    ("12.8GB/s x16cores", ddr2_1600, 4),
)


@dataclass(frozen=True)
class Figure4Result:
    """{scale label: {metric: optimal-scheme gain over Equal (hetero avg)}}"""

    gains: dict[str, dict[str, float]]
    mixes: tuple[str, ...]

    def series(self, metric: str) -> list[float]:
        """Gain-over-Equal values in bandwidth order."""
        return [self.gains[label][metric] for label, _, _ in SCALE_POINTS]


def points(cfg_for):
    """Per scale point: the hetero mixes' profiles at its DRAM and the
    optimal schemes' and Equal's runs at its copy count."""
    schemes = tuple(sorted(set(OPTIMAL_FOR.values()) | {"equal"}))
    out: list = []
    for _label, dram_factory, copies in SCALE_POINTS:
        cfg = cfg_for(dram_factory())
        out += profile_points(HETERO_MIXES, cfg)
        out += run_points(HETERO_MIXES, schemes, cfg, copies=copies)
    return out, 0


def run(
    runner_factory,
    mixes: tuple[str, ...] = HETERO_MIXES,
    scale_points=SCALE_POINTS,
) -> Figure4Result:
    """Execute the scalability sweep.

    ``runner_factory(dram_config) -> Runner`` builds a runner per scale
    point (APC_alone is re-measured at every bandwidth, exactly as the
    paper does; the profiles' digests include the DRAM config).
    """
    gains: dict[str, dict[str, float]] = {}
    for label, dram_factory, copies in scale_points:
        runner: Runner = runner_factory(dram_factory())
        per_metric: dict[str, list[float]] = {m: [] for m in OPTIMAL_FOR}
        for mix in mixes:
            for metric, scheme in OPTIMAL_FOR.items():
                opt = runner.run(mix, scheme, copies=copies).metrics[metric]
                eq = runner.run(mix, "equal", copies=copies).metrics[metric]
                per_metric[metric].append(opt / eq if eq > 0 else float("inf"))
        gains[label] = {m: float(np.mean(v)) for m, v in per_metric.items()}
    return Figure4Result(gains=gains, mixes=tuple(mixes))


def render(result: Figure4Result) -> str:
    metrics = list(OPTIMAL_FOR)
    headers = ["scale point"] + [f"{m} ({OPTIMAL_FOR[m]})" for m in metrics]
    labels = [label for label, _, _ in SCALE_POINTS if label in result.gains]
    rows = [
        [label] + [result.gains[label][m] for m in metrics] for label in labels
    ]
    table = format_table(
        headers,
        rows,
        title=(
            "Figure 4: optimal-scheme performance normalized to Equal "
            f"(hetero mixes: {', '.join(result.mixes)})"
        ),
    )
    if len(labels) >= 2:
        from repro.experiments.plot import line_series

        chart = line_series(
            {m: [result.gains[label][m] for label in labels] for m in metrics},
            [label.split(" ")[0] for label in labels],
            title="(series view: gains over Equal vs bandwidth)",
        )
        return f"{table}\n\n{chart}"
    return table
