"""Off-chip memory bandwidth partitioning schemes (paper Sec. V-D).

Seven schemes are evaluated in the paper:

=================  ===========================================  ==========
Scheme             Share rule                                   Optimal for
=================  ===========================================  ==========
No_partitioning    unmanaged FCFS (no shares)                   --
Equal              ``beta_i = 1/N``                             --
Proportional       ``beta_i ~ APC_alone,i``                     fairness
Square_root        ``beta_i ~ sqrt(APC_alone,i)``               Hsp
2/3_power          ``beta_i ~ APC_alone,i^(2/3)`` (Liu et al.)  -- (claimed Wsp)
Priority_APC       strict priority, low ``APC_alone`` first     Wsp
Priority_API       strict priority, low ``API`` first           IPCsum
=================  ===========================================  ==========

Share-based schemes produce a ``beta`` vector which a work-conserving
enforcement mechanism turns into per-app APC via capped water-filling;
priority schemes allocate by the paper's greedy fractional-knapsack rule.

``No_partitioning`` has no analytical definition in the paper -- it is the
behaviour of an unmanaged FCFS memory controller, which the simulator
models directly.  For model-only studies we provide a configurable
stand-in (:class:`NoPartitioningModel`) where bandwidth is grabbed in
proportion to a power > 1 of demand, reflecting the paper's observation
that under FCFS "high API applications tend to occupy more off-chip
bandwidth ... the bandwidth an application occupies naturally is not
exactly proportional to its inherent memory access frequency".
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.apps import Workload
from repro.core.bandwidth import (
    capped_allocation,
    greedy_allocation,
    normalize_shares,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "PartitioningScheme",
    "ShareBasedScheme",
    "PriorityScheme",
    "EqualPartitioning",
    "ProportionalPartitioning",
    "SquareRootPartitioning",
    "TwoThirdsPowerPartitioning",
    "PowerPartitioning",
    "PriorityAPC",
    "PriorityAPI",
    "NoPartitioningModel",
    "SCHEME_ORDER",
    "scheme_by_name",
    "default_schemes",
]


class PartitioningScheme(ABC):
    """A rule mapping a workload + total bandwidth to per-app APC."""

    #: short identifier used in reports
    name: str = "scheme"
    #: label as printed in the paper
    label: str = "scheme"

    @abstractmethod
    def allocate(
        self,
        workload: Workload,
        total_bandwidth: float,
        *,
        work_conserving: bool = True,
    ) -> np.ndarray:
        """Return the ``APC_shared`` vector under this scheme."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ShareBasedScheme(PartitioningScheme):
    """A scheme defined by a share vector ``beta`` (fractions of B)."""

    @abstractmethod
    def beta(self, workload: Workload) -> np.ndarray:
        """Fractions of total bandwidth per app; sums to 1."""

    def allocate(
        self,
        workload: Workload,
        total_bandwidth: float,
        *,
        work_conserving: bool = True,
    ) -> np.ndarray:
        return capped_allocation(
            self.beta(workload),
            total_bandwidth,
            workload.apc_alone,
            work_conserving=work_conserving,
        )


class PriorityScheme(PartitioningScheme):
    """A strict-priority scheme (the paper's knapsack allocations)."""

    @abstractmethod
    def priority_order(self, workload: Workload) -> np.ndarray:
        """App indices from highest to lowest priority."""

    def allocate(
        self,
        workload: Workload,
        total_bandwidth: float,
        *,
        work_conserving: bool = True,
    ) -> np.ndarray:
        return greedy_allocation(
            self.priority_order(workload), total_bandwidth, workload.apc_alone
        )


class PowerPartitioning(ShareBasedScheme):
    """``beta_i ~ APC_alone,i ** alpha`` -- the family that unifies
    Equal (alpha=0), Square_root (0.5), 2/3_power (2/3) and
    Proportional (1).
    """

    def __init__(
        self, alpha: float, name: str | None = None, label: str | None = None
    ) -> None:
        if not np.isfinite(alpha):
            raise ConfigurationError(f"alpha must be finite, got {alpha!r}")
        self.alpha = float(alpha)
        self.name = name or f"power_{alpha:g}"
        self.label = label or f"APC^{alpha:g}"

    def beta(self, workload: Workload) -> np.ndarray:
        return normalize_shares(workload.apc_alone**self.alpha)

    def __repr__(self) -> str:
        return f"PowerPartitioning(alpha={self.alpha!r})"


class EqualPartitioning(PowerPartitioning):
    """Fair-queueing style equal shares (Nesbit et al.), ``beta_i = 1/N``."""

    def __init__(self) -> None:
        super().__init__(0.0, name="equal", label="Equal")


class SquareRootPartitioning(PowerPartitioning):
    """Paper Eq. (5): optimal for harmonic weighted speedup."""

    def __init__(self) -> None:
        super().__init__(0.5, name="sqrt", label="Square_root")


class TwoThirdsPowerPartitioning(PowerPartitioning):
    """Liu et al. (HPCA'10) queueing-model optimum for Wsp, Eq. (19) there."""

    def __init__(self) -> None:
        super().__init__(2.0 / 3.0, name="twothirds", label="2/3_power")


class ProportionalPartitioning(PowerPartitioning):
    """Paper Sec. III-C: optimal for (minimum) fairness."""

    def __init__(self) -> None:
        super().__init__(1.0, name="prop", label="Proportional")


class PriorityAPC(PriorityScheme):
    """Paper Sec. III-D: low-``APC_alone`` apps first; optimal for Wsp."""

    name = "prio_apc"
    label = "Priority_APC"

    def priority_order(self, workload: Workload) -> np.ndarray:
        # np.argsort is stable, so ties break by core index as in the paper's
        # deterministic scheduler.
        return np.argsort(workload.apc_alone, kind="stable")


class PriorityAPI(PriorityScheme):
    """Paper Sec. III-E: low-``API`` apps first; optimal for sum of IPCs."""

    name = "prio_api"
    label = "Priority_API"

    def priority_order(self, workload: Workload) -> np.ndarray:
        return np.argsort(workload.api, kind="stable")


class NoPartitioningModel(ShareBasedScheme):
    """Analytical stand-in for an unmanaged FCFS controller.

    Bandwidth is grabbed in proportion to ``APC_alone ** gamma`` with
    ``gamma > 1`` (default 1.3): memory-intensive applications overrun
    their proportional share, starving low-intensity ones, which is the
    FCFS behaviour the paper describes.  The cycle-level simulator models
    No_partitioning directly with an FCFS scheduler; this class exists
    for closed-form studies only.
    """

    name = "nopart"
    label = "No_partitioning"

    def __init__(self, gamma: float = 1.3) -> None:
        if not (gamma >= 1.0):
            raise ConfigurationError(f"gamma must be >= 1, got {gamma!r}")
        self.gamma = float(gamma)

    def beta(self, workload: Workload) -> np.ndarray:
        return normalize_shares(workload.apc_alone**self.gamma)

    def __repr__(self) -> str:
        return f"NoPartitioningModel(gamma={self.gamma!r})"


#: report column order used in the paper's Fig. 2
SCHEME_ORDER: tuple[str, ...] = (
    "equal",
    "prop",
    "sqrt",
    "twothirds",
    "prio_apc",
    "prio_api",
)


def default_schemes() -> dict[str, PartitioningScheme]:
    """The six managed schemes of the paper's main evaluation (Fig. 2)."""
    schemes: tuple[PartitioningScheme, ...] = (
        EqualPartitioning(),
        ProportionalPartitioning(),
        SquareRootPartitioning(),
        TwoThirdsPowerPartitioning(),
        PriorityAPC(),
        PriorityAPI(),
    )
    return {s.name: s for s in schemes}


def scheme_by_name(name: str) -> PartitioningScheme:
    """Look up a scheme by short name (includes ``nopart`` stand-in)."""
    schemes = default_schemes()
    schemes["nopart"] = NoPartitioningModel()
    try:
        return schemes[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {name!r}; available: {sorted(schemes)}"
        ) from None
