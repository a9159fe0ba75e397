# reprolint: disable-file=dead-code
# Paper content: priority weights (Sec. II-B) and the any-IPC-metric
# claim (Sec. III-F), run by examples/design_your_own_metric.py.
"""Priority-weighted metrics and their derived optimal partitions.

The paper's motivation (Sec. II-B): "the system performance metric may
be defined in such a way that applications with higher priority have
more weights ... allocating more bandwidth to high-priority applications
will have more performance gain."  Sec. III-F then claims the model
covers *any* IPC-based metric.  This module delivers that generality for
the weighted versions of the two speedup metrics:

Weighted weighted-speedup (weights ``w_i > 0``)::

    Wsp_w = sum_i w_i * s_i / sum_i w_i,   s_i = IPC_shared,i / IPC_alone,i

Linear in APC, so the fractional-knapsack argument applies verbatim with
value density ``w_i / APC_alone,i``: serve apps in *decreasing*
``w_i / APC_alone,i`` order (plain Priority_APC is the ``w_i = 1`` case).

Weighted harmonic speedup::

    Hsp_w = sum_i w_i / sum_i (w_i / s_i)

Minimizing ``sum w_i a_i / x_i`` under ``sum x_i = B`` gives (Lagrange)
``x_i ∝ sqrt(w_i * a_i)`` -- Square_root is the ``w_i = 1`` case.  Both
derivations are verified against the numerical optimizer in the tests.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.core.apps import Workload
from repro.core.bandwidth import normalize_shares
from repro.core.knapsack import solve_fractional_knapsack
from repro.core.metrics import Metric
from repro.core.model import OperatingPoint
from repro.core.partitioning import PriorityScheme, ShareBasedScheme
from repro.util.errors import ConfigurationError
from repro.util.validation import as_float_array

__all__ = [
    "WeightedHarmonicSpeedup",
    "WeightedWeightedSpeedup",
    "WeightedSquareRootPartitioning",
    "WeightedPriorityAPC",
    "weighted_hsp_optimum",
]


def _check_weights(weights: ArrayLike, n: int | None = None) -> np.ndarray:
    w = as_float_array("weights", weights)
    if np.any(w <= 0):
        raise ConfigurationError("weights must be positive")
    if n is not None and len(w) != n:
        raise ConfigurationError(f"expected {n} weights, got {len(w)}")
    return w


class WeightedHarmonicSpeedup(Metric):
    """``sum(w) / sum(w_i / s_i)`` -- Hsp with per-app priority weights."""

    def __init__(self, weights: ArrayLike) -> None:
        self.weights = _check_weights(weights)
        self.name = "whsp"
        self.label = "Weighted harmonic speedup"

    def evaluate(self, ipc_shared: np.ndarray, ipc_alone: np.ndarray) -> float:
        w = _check_weights(self.weights, len(ipc_shared))
        if np.any(ipc_shared <= 0):
            return 0.0
        speedups = ipc_shared / ipc_alone
        inv_sum = float(np.sum(w / speedups))
        if inv_sum <= 0:
            # every weighted slowdown underflowed to zero: limit is +inf
            return float("inf")
        return float(w.sum() / inv_sum)


class WeightedWeightedSpeedup(Metric):
    """``sum(w_i * s_i) / sum(w)`` -- Wsp with per-app priority weights."""

    def __init__(self, weights: ArrayLike) -> None:
        self.weights = _check_weights(weights)
        self.name = "wwsp"
        self.label = "Weighted weighted speedup"

    def evaluate(self, ipc_shared: np.ndarray, ipc_alone: np.ndarray) -> float:
        w = _check_weights(self.weights, len(ipc_shared))
        w_total = float(w.sum())
        if w_total <= 0:
            raise ConfigurationError("weights must sum to a positive value")
        return float(np.sum(w * ipc_shared / ipc_alone) / w_total)


class WeightedSquareRootPartitioning(ShareBasedScheme):
    """``beta_i ∝ sqrt(w_i * APC_alone,i)`` -- optimal for weighted Hsp.

    Reduces to the paper's Square_root at equal weights.
    """

    def __init__(self, weights: ArrayLike) -> None:
        self.weights = _check_weights(weights)
        self.name = "wsqrt"
        self.label = "Weighted square_root"

    def beta(self, workload: Workload) -> np.ndarray:
        w = _check_weights(self.weights, workload.n)
        return normalize_shares(np.sqrt(w * workload.apc_alone))


class WeightedPriorityAPC(PriorityScheme):
    """Serve in decreasing ``w_i / APC_alone,i`` -- optimal for weighted Wsp.

    Reduces to the paper's Priority_APC at equal weights.
    """

    def __init__(self, weights: ArrayLike) -> None:
        self.weights = _check_weights(weights)
        self.name = "wprio_apc"
        self.label = "Weighted priority_APC"

    def priority_order(self, workload: Workload) -> np.ndarray:
        w = _check_weights(self.weights, workload.n)
        density = w / workload.apc_alone
        return np.argsort(-density, kind="stable")

    def knapsack_point(
        self, workload: Workload, total_bandwidth: float
    ) -> OperatingPoint:
        """The optimal operating point via the knapsack solver directly."""
        w = _check_weights(self.weights, workload.n)
        sol = solve_fractional_knapsack(
            w / (w.sum() * workload.apc_alone),
            workload.apc_alone,
            total_bandwidth,
        )
        return OperatingPoint(workload, sol.quantities)


def weighted_hsp_optimum(
    workload: Workload, total_bandwidth: float, weights: ArrayLike
) -> float:
    """Closed form for the maximum weighted Hsp (uncapped regime):

    ``Hsp_w* = sum(w) * B / (sum_i sqrt(w_i a_i))^2``
    (the Eq. (4) generalization; equal weights recover Eq. (4) exactly).
    """
    w = _check_weights(weights, workload.n)
    s = float(np.sqrt(w * workload.apc_alone).sum())
    if s <= 0:
        # w_i * a_i can underflow to exact zero for subnormal inputs
        raise ConfigurationError("sqrt(w * apc_alone) must sum to a positive value")
    return float(w.sum() * total_bandwidth / s**2)
