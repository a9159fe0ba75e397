"""QoS-guaranteed bandwidth partitioning (paper Sec. III-G and VI-B).

Applications split into two groups:

* **QoS-guaranteed**: each has a target IPC; it must receive
  ``B_QoS,i = IPC_target,i * API_i`` accesses per cycle (bandwidth is
  the binding resource, so hitting the APC target hits the IPC target
  by Eq. 1).
* **Best effort**: the remaining bandwidth ``B_BE = B - sum(B_QoS)``
  (Eq. 11) is partitioned among them to maximize a chosen objective,
  reusing the optimal schemes of Sec. III-B..E on the reduced problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.apps import Workload
from repro.core.bandwidth import assert_conservation
from repro.core.knapsack import solve_fractional_knapsack
from repro.core.metrics import (
    HarmonicWeightedSpeedup,
    Metric,
    MinFairness,
    SumOfIPCs,
    WeightedSpeedup,
)
from repro.core.model import OperatingPoint
from repro.core.partitioning import (
    ProportionalPartitioning,
    SquareRootPartitioning,
)
from repro.util.errors import ConfigurationError, InfeasibleError
from repro.util.validation import check_positive

__all__ = [
    "QoSTarget",
    "QoSPlan",
    "QoSPartitioner",
]


@dataclass(frozen=True)
class QoSTarget:
    """An IPC guarantee for one application."""

    app_name: str
    ipc_target: float

    def __post_init__(self) -> None:
        check_positive(f"ipc_target ({self.app_name})", self.ipc_target)


@dataclass(frozen=True)
class QoSPlan:
    """A complete QoS-aware allocation for a workload."""

    workload: Workload
    #: per-app APC allocation (QoS apps pinned, best-effort optimized)
    apc_shared: np.ndarray
    #: indices of QoS-guaranteed apps
    qos_indices: tuple[int, ...]
    #: bandwidth reserved for the QoS group
    b_qos: float
    #: bandwidth left for the best-effort group (Eq. 11)
    b_best_effort: float
    #: name of the best-effort objective optimized
    objective: str = field(default="wsp")

    @property
    def operating_point(self) -> OperatingPoint:
        return OperatingPoint(self.workload, self.apc_shared)

    @property
    def beta(self) -> np.ndarray:
        """Share vector for a share-enforcing scheduler."""
        total = self.apc_shared.sum()
        if total <= 0:
            raise ConfigurationError("QoS plan has zero total bandwidth")
        return self.apc_shared / total

    def best_effort_point(self) -> OperatingPoint:
        """Operating point restricted to the best-effort group."""
        be = [i for i in range(self.workload.n) if i not in self.qos_indices]
        sub = Workload.of(
            f"{self.workload.name}-BE", [self.workload[i] for i in be]
        )
        return OperatingPoint(sub, self.apc_shared[be])


class QoSPartitioner:
    """Computes QoS-guaranteed partitions per paper Sec. III-G.

    Parameters
    ----------
    objective:
        Metric to maximize over the best-effort group.  The four paper
        metrics map to their derived-optimal allocations; Sec. VI-B uses
        Wsp/IPCsum/Hsp.
    """

    def __init__(self, objective: Metric | None = None) -> None:
        self.objective = objective or WeightedSpeedup()

    def plan(
        self,
        workload: Workload,
        total_bandwidth: float,
        targets: list[QoSTarget],
    ) -> QoSPlan:
        """Allocate bandwidth: guarantees first, best-effort optimized.

        Raises
        ------
        InfeasibleError
            If a target exceeds the app's standalone IPC, or the QoS
            reservations exceed the total bandwidth.
        """
        check_positive("total_bandwidth", total_bandwidth)
        if not targets:
            raise ConfigurationError("QoS plan needs at least one target")

        qos_idx: list[int] = []
        reservations = np.zeros(workload.n)
        for t in targets:
            i = workload.index_of(t.app_name)
            if i in qos_idx:
                raise ConfigurationError(f"duplicate QoS target for {t.app_name!r}")
            app = workload[i]
            if t.ipc_target > app.ipc_alone + 1e-12:
                raise InfeasibleError(
                    f"target IPC {t.ipc_target} for {app.name!r} exceeds its "
                    f"standalone IPC {app.ipc_alone:.4f}"
                )
            qos_idx.append(i)
            # B_QoS = IPC_target * API (Sec. III-G)
            reservations[i] = t.ipc_target * app.api

        b_qos = float(reservations.sum())
        b_be = total_bandwidth - b_qos
        if b_be < -1e-12:
            raise InfeasibleError(
                f"QoS reservations ({b_qos:.5f} APC) exceed total bandwidth "
                f"({total_bandwidth:.5f} APC)"
            )
        b_be = max(b_be, 0.0)

        be_idx = [i for i in range(workload.n) if i not in qos_idx]
        apc = reservations.copy()
        if be_idx and b_be > 0:
            sub = Workload.of(
                f"{workload.name}-BE", [workload[i] for i in be_idx]
            )
            apc_be = self._allocate_best_effort(sub, b_be)
            for j, i in enumerate(be_idx):
                apc[i] = apc_be[j]

        return QoSPlan(
            workload=workload,
            apc_shared=assert_conservation(
                apc,
                total_bandwidth,
                workload.apc_alone,
                where="QoSPartitioner.plan",
            ),
            qos_indices=tuple(qos_idx),
            b_qos=b_qos,
            b_best_effort=b_be,
            objective=self.objective.name,
        )

    def _allocate_best_effort(
        self, sub: Workload, b_be: float
    ) -> np.ndarray:
        """Optimal best-effort allocation for the configured objective."""
        obj = self.objective
        if isinstance(obj, HarmonicWeightedSpeedup):
            return SquareRootPartitioning().allocate(sub, b_be)
        if isinstance(obj, MinFairness):
            return ProportionalPartitioning().allocate(sub, b_be)
        if isinstance(obj, WeightedSpeedup):
            sol = solve_fractional_knapsack(
                1.0 / (sub.n * sub.apc_alone), sub.apc_alone, b_be
            )
            return sol.quantities
        if isinstance(obj, SumOfIPCs):
            sol = solve_fractional_knapsack(1.0 / sub.api, sub.apc_alone, b_be)
            return sol.quantities
        # arbitrary metric: fall back to the numerical optimizer
        from repro.core.optimizer import optimize_partition

        return optimize_partition(sub, b_be, obj).apc_shared
