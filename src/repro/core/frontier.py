# reprolint: disable-file=dead-code
# Paper content: the power family of Sec. III-F, run by
# examples/fairness_throughput_frontier.py.
"""Throughput-fairness tradeoff analysis over the power family.

Paper Sec. III-F observes that Equal (α=0), Square_root (α=1/2),
2/3_power (α=2/3) and Proportional (α=1) are all members of one family,
``β_i ∝ APC_alone,i^α``, and that "the closer a scheme is to the optimal
partitioning, the better performance it achieves".  This module makes
that observation operational:

* sweep α and evaluate every metric along the family,
* extract the Pareto-efficient points for any metric pair
  (classically: fairness vs throughput),
* locate the best α for a metric, and the *knee* of a tradeoff curve
  (the point of diminishing returns, by maximum distance to the chord).

Everything here is closed-form model evaluation -- thousands of what-ifs
per second, no simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.apps import Workload
from repro.core.metrics import Metric
from repro.core.model import AnalyticalModel
from repro.core.partitioning import PowerPartitioning
from repro.util.errors import ConfigurationError

__all__ = [
    "FrontierPoint",
    "power_family_frontier",
    "pareto_points",
    "best_alpha",
    "knee_alpha",
]


@dataclass(frozen=True)
class FrontierPoint:
    """One α of the power family with its full metric profile."""

    alpha: float
    beta: np.ndarray
    metrics: dict[str, float]

    def __getitem__(self, metric_name: str) -> float:
        return self.metrics[metric_name]


def power_family_frontier(
    workload: Workload,
    total_bandwidth: float,
    alphas: np.ndarray | None = None,
) -> list[FrontierPoint]:
    """Evaluate all four paper metrics along ``β ∝ APC_alone^α``.

    The default grid spans α ∈ [0, 1.5]: 0 = Equal, 1 = Proportional,
    and values above 1 over-weight heavy apps (No_partitioning-like).
    """
    if alphas is None:
        alphas = np.linspace(0.0, 1.5, 31)
    model = AnalyticalModel(workload, total_bandwidth)
    points = []
    for alpha in np.asarray(alphas, dtype=float):
        scheme = PowerPartitioning(float(alpha))
        op = model.operating_point(scheme)
        points.append(
            FrontierPoint(
                alpha=float(alpha),
                beta=scheme.beta(workload),
                metrics=op.evaluate_all(),
            )
        )
    return points


def pareto_points(
    points: list[FrontierPoint], x: str = "minf", y: str = "wsp"
) -> list[FrontierPoint]:
    """Pareto-efficient subset for the (x, y) metric pair (both maximized).

    Returned in increasing ``x`` order; a point survives iff no other
    point weakly dominates it in both coordinates (and strictly in one).
    """
    if not points:
        raise ConfigurationError("pareto_points needs at least one point")
    efficient = []
    for p in points:
        dominated = any(
            (q[x] >= p[x] and q[y] >= p[y])
            and (q[x] > p[x] or q[y] > p[y])
            for q in points
        )
        if not dominated:
            efficient.append(p)
    return sorted(efficient, key=lambda p: p[x])


def best_alpha(points: list[FrontierPoint], metric: str | Metric) -> FrontierPoint:
    """The family member maximizing one metric.

    Sanity anchor: for ``hsp`` this lands at α ≈ 0.5 (Square_root) and
    for ``minf`` at α ≈ 1 (Proportional) -- the paper's derivations.
    """
    name = metric if isinstance(metric, str) else metric.name
    if not points:
        raise ConfigurationError("best_alpha needs at least one point")
    return max(points, key=lambda p: p[name])


def knee_alpha(
    points: list[FrontierPoint], x: str = "minf", y: str = "wsp"
) -> FrontierPoint:
    """Knee of the (x, y) tradeoff: the Pareto point farthest from the
    chord between the frontier's endpoints (max-distance-to-line rule).

    Useful as a default policy when the operator refuses to pick a
    single objective: it concedes a little of each extreme.
    """
    frontier = pareto_points(points, x, y)
    if len(frontier) < 3:
        return frontier[len(frontier) // 2]
    xs = np.array([p[x] for p in frontier])
    ys = np.array([p[y] for p in frontier])
    # normalize both axes so the distance is scale-free
    xs_n = (xs - xs.min()) / max(np.ptp(xs), 1e-12)
    ys_n = (ys - ys.min()) / max(np.ptp(ys), 1e-12)
    x0, y0 = xs_n[0], ys_n[0]
    x1, y1 = xs_n[-1], ys_n[-1]
    chord = np.hypot(x1 - x0, y1 - y0)
    if chord < 1e-12:
        return frontier[len(frontier) // 2]
    dist = np.abs((y1 - y0) * xs_n - (x1 - x0) * ys_n + x1 * y0 - y1 * x0) / chord
    return frontier[int(np.argmax(dist))]
