"""IPC-based system performance metrics (paper Sec. III and V-A).

The paper evaluates four objectives; all are functions of the per-app
shared-mode IPC vector and (for normalized metrics) the standalone IPC
vector:

* Harmonic weighted speedup (Eq. 3)  -- balance of throughput & fairness.
* Weighted speedup          (Eq. 9)  -- normalized throughput.
* Sum of IPCs               (Eq. 10) -- raw throughput.
* Minimum fairness          (Eq. 14) -- ``N * min_i(speedup_i)``.

Any other IPC-based metric can be plugged in by subclassing
:class:`Metric`; the generic optimizer in :mod:`repro.core.optimizer`
will maximize it (the versatility claim of paper Sec. III-F).

The four paper metrics evaluate in Python floats, with the sums and
divisions of the numpy expressions they replaced, so a served response
pays no numpy call per metric.  Their ``evaluate`` also accepts plain
sequences of floats.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from repro.core.bandwidth import pairwise_sum
from repro.util.errors import ConfigurationError

#: an IPC vector: an array, or a row of floats for the paper metrics
FloatRow = np.ndarray | Sequence[float]

__all__ = [
    "Metric",
    "HarmonicWeightedSpeedup",
    "WeightedSpeedup",
    "SumOfIPCs",
    "MinFairness",
    "speedups",
    "ALL_METRICS",
    "metric_by_name",
]


def speedups(ipc_shared: np.ndarray, ipc_alone: np.ndarray) -> np.ndarray:
    """Per-app speedup vector ``IPC_shared,i / IPC_alone,i``."""
    shared = np.asarray(ipc_shared, dtype=float)
    alone = np.asarray(ipc_alone, dtype=float)
    if shared.shape != alone.shape:
        raise ConfigurationError(
            f"ipc vectors shape mismatch: {shared.shape} vs {alone.shape}"
        )
    if (alone <= 0).any():
        raise ConfigurationError("ipc_alone must be positive")
    return shared / alone


def _row(values: FloatRow) -> Sequence[float]:
    return values.tolist() if isinstance(values, np.ndarray) else values


def _ratio(a: float, b: float) -> float:
    """``a / b`` as numpy divides: a zero ``b`` gives inf or NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or not a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _ratios(num: Sequence[float], den: Sequence[float]) -> list[float]:
    try:
        return [a / b for a, b in zip(num, den)]
    except ZeroDivisionError:
        return [_ratio(a, b) for a, b in zip(num, den)]


def _minimum(values: Sequence[float]) -> float:
    """``np.min`` of a non-empty row: NaN wins."""
    low = values[0]
    for x in values:
        if x != x:
            return x
        if x < low:
            low = x
    return low


class Metric(ABC):
    """A scalar system objective over per-app IPC vectors.

    Subclasses must be *monotone non-decreasing* in each ``ipc_shared``
    component for the knapsack/closed-form optimality results of the
    paper to apply; the generic numerical optimizer does not rely on
    monotonicity.
    """

    #: short identifier used in reports and the metric registry
    name: str = "metric"
    #: label as printed in the paper's figures
    label: str = "metric"
    #: whether larger values are better (all paper metrics are)
    higher_is_better: bool = True

    @abstractmethod
    def evaluate(self, ipc_shared: np.ndarray, ipc_alone: np.ndarray) -> float:
        """Scalar objective for the given operating point."""

    def __call__(self, ipc_shared: np.ndarray, ipc_alone: np.ndarray) -> float:
        return self.evaluate(np.asarray(ipc_shared, float), np.asarray(ipc_alone, float))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class HarmonicWeightedSpeedup(Metric):
    """Eq. (3): ``N / sum_i (IPC_alone,i / IPC_shared,i)``.

    Undefined when any application is fully starved; we return 0.0 in
    that case (the limit as its IPC approaches zero), which matches how
    starvation shows up in the paper's Fig. 2(a) for priority schemes.
    """

    name = "hsp"
    label = "Harmonic weighted speedup"

    def evaluate(self, ipc_shared: FloatRow, ipc_alone: FloatRow) -> float:
        shared, alone = _row(ipc_shared), _row(ipc_alone)
        if any(x <= 0 for x in shared):
            return 0.0
        inv_speedup_sum = pairwise_sum(_ratios(alone, shared))
        if inv_speedup_sum <= 0:
            # every slowdown term underflowed to zero: the limit is +inf
            return float("inf")
        return len(shared) / inv_speedup_sum


class WeightedSpeedup(Metric):
    """Eq. (9): ``sum_i (IPC_shared,i / IPC_alone,i) / N``."""

    name = "wsp"
    label = "Weighted speedup"

    def evaluate(self, ipc_shared: FloatRow, ipc_alone: FloatRow) -> float:
        shared = _row(ipc_shared)
        return _ratio(pairwise_sum(_ratios(shared, _row(ipc_alone))), len(shared))


class SumOfIPCs(Metric):
    """Eq. (10): ``sum_i IPC_shared,i``."""

    name = "ipcsum"
    label = "Sum of IPCs"

    def evaluate(self, ipc_shared: FloatRow, ipc_alone: FloatRow) -> float:
        return pairwise_sum(_row(ipc_shared))


class MinFairness(Metric):
    """Eq. (14): ``N * min_i (IPC_shared,i / IPC_alone,i)``.

    The system "achieves minimum fairness" when the result is >= 1,
    i.e. every application retains at least ``1/N`` of its standalone
    performance (paper Sec. V-A).  Equivalent to the maximum-slowdown
    criterion up to the factor ``N``.
    """

    name = "minf"
    label = "Minimum fairness"

    def evaluate(self, ipc_shared: FloatRow, ipc_alone: FloatRow) -> float:
        shared = _row(ipc_shared)
        return len(shared) * _minimum(_ratios(shared, _row(ipc_alone)))


#: the four paper metrics, in the order used throughout the evaluation
ALL_METRICS: tuple[Metric, ...] = (
    HarmonicWeightedSpeedup(),
    MinFairness(),
    WeightedSpeedup(),
    SumOfIPCs(),
)

_REGISTRY: Mapping[str, Metric] = {m.name: m for m in ALL_METRICS}


def metric_by_name(name: str) -> Metric:
    """Look up one of the four paper metrics by its short name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
