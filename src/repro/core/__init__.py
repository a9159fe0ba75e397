"""Core analytical model -- the paper's primary contribution.

Public surface::

    from repro.core import (
        AppProfile, Workload, AnalyticalModel, OperatingPoint,
        metrics, partitioning, QoSPartitioner, QoSTarget,
    )
"""

from typing import TYPE_CHECKING, Any

from repro.core.apps import AppProfile, Workload, relative_std
from repro.core.bandwidth import (
    capped_allocation,
    greedy_allocation,
    normalize_shares,
)
from repro.core.batch import (
    BATCH_SCHEMES,
    BatchKnapsackSolution,
    batch_allocate,
    batch_capped_allocation,
    batch_greedy_allocation,
    batch_qos_plan,
    batch_solve_fractional_knapsack,
)
from repro.core.closed_form import (
    cauchy_dominance_holds,
    hsp_proportional,
    hsp_square_root,
    wsp_proportional,
    wsp_square_root,
)
from repro.core.frontier import (
    FrontierPoint,
    best_alpha,
    knee_alpha,
    pareto_points,
    power_family_frontier,
)
from repro.core.knapsack import KnapsackSolution, solve_fractional_knapsack
from repro.core.metrics import (
    ALL_METRICS,
    HarmonicWeightedSpeedup,
    Metric,
    MinFairness,
    SumOfIPCs,
    WeightedSpeedup,
    metric_by_name,
    speedups,
)
from repro.core.model import AnalyticalModel, OperatingPoint
from repro.core.partitioning import (
    SCHEME_ORDER,
    EqualPartitioning,
    NoPartitioningModel,
    PartitioningScheme,
    PowerPartitioning,
    PriorityAPC,
    PriorityAPI,
    PriorityScheme,
    ProportionalPartitioning,
    ShareBasedScheme,
    SquareRootPartitioning,
    TwoThirdsPowerPartitioning,
    default_schemes,
    scheme_by_name,
)
from repro.core.qos import QoSPartitioner, QoSPlan, QoSTarget

if TYPE_CHECKING:
    from repro.core.optimizer import PartitionOptimum, optimize_partition

#: names served from repro.core.optimizer, which imports scipy; loading
#: it on first use keeps scipy off paths that never optimize (serving)
_OPTIMIZER_NAMES = ("PartitionOptimum", "optimize_partition")


def __getattr__(name: str) -> Any:
    if name in _OPTIMIZER_NAMES:
        from repro.core import optimizer

        value = getattr(optimizer, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AppProfile",
    "Workload",
    "relative_std",
    "capped_allocation",
    "greedy_allocation",
    "normalize_shares",
    "BATCH_SCHEMES",
    "BatchKnapsackSolution",
    "batch_allocate",
    "batch_capped_allocation",
    "batch_greedy_allocation",
    "batch_qos_plan",
    "batch_solve_fractional_knapsack",
    "cauchy_dominance_holds",
    "hsp_proportional",
    "hsp_square_root",
    "wsp_proportional",
    "wsp_square_root",
    "FrontierPoint",
    "best_alpha",
    "knee_alpha",
    "pareto_points",
    "power_family_frontier",
    "KnapsackSolution",
    "solve_fractional_knapsack",
    "ALL_METRICS",
    "HarmonicWeightedSpeedup",
    "Metric",
    "MinFairness",
    "SumOfIPCs",
    "WeightedSpeedup",
    "metric_by_name",
    "speedups",
    "AnalyticalModel",
    "OperatingPoint",
    "PartitionOptimum",
    "optimize_partition",
    "SCHEME_ORDER",
    "EqualPartitioning",
    "NoPartitioningModel",
    "PartitioningScheme",
    "PowerPartitioning",
    "PriorityAPC",
    "PriorityAPI",
    "PriorityScheme",
    "ProportionalPartitioning",
    "ShareBasedScheme",
    "SquareRootPartitioning",
    "TwoThirdsPowerPartitioning",
    "default_schemes",
    "scheme_by_name",
    "QoSPartitioner",
    "QoSPlan",
    "QoSTarget",
]
