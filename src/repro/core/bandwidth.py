"""Bandwidth units and share-to-APC allocation.

Two concerns live here:

* Unit conversions between the model's native bandwidth unit -- memory
  Accesses Per Cycle (APC) -- and Bytes/s, following paper Sec. III-A:
  ``GB/s = APC x cache_line_size x cpu_frequency`` (their example:
  0.01 APC = 3.2 GB/s at 64 B lines and 5 GHz).

* Turning a *share vector* ``beta`` (fractions of total bandwidth,
  summing to 1) into a feasible per-app ``APC_shared`` vector.  An
  application can never consume more bandwidth than its standalone
  demand ``APC_alone`` (paper Sec. III-D: "the maximum bandwidth one
  application can occupy is bounded by APC_alone"), so shares are capped
  and the slack is redistributed among the remaining applications in
  proportion to their shares -- the behaviour of any work-conserving
  enforcement mechanism such as the paper's start-time-fair scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError, InvariantViolation
from repro.util.validation import check_positive

__all__ = [
    "BandwidthUnit",
    "apc_to_bytes_per_sec",
    "bytes_per_sec_to_apc",
    "normalize_shares",
    "capped_allocation",
    "greedy_allocation",
    "conservation_residual",
    "assert_conservation",
    "CONSERVATION_ATOL",
    "CONSERVATION_RTOL",
]

#: absolute slack allowed by the Eq. 2 conservation check
CONSERVATION_ATOL = 1e-12
#: relative (to the budget) slack allowed by the Eq. 2 conservation check
CONSERVATION_RTOL = 1e-8


@dataclass(frozen=True)
class BandwidthUnit:
    """Conversion context between APC and bytes/second.

    Parameters mirror the paper's example (Sec. III-A): 64-byte last
    level cache lines and a 5 GHz CPU clock.
    """

    cache_line_bytes: int = 64
    cpu_frequency_hz: float = 5.0e9

    def __post_init__(self) -> None:
        check_positive("cache_line_bytes", self.cache_line_bytes)
        check_positive("cpu_frequency_hz", self.cpu_frequency_hz)

    def to_bytes_per_sec(self, apc: float) -> float:
        """APC -> bytes/second."""
        return apc * self.cache_line_bytes * self.cpu_frequency_hz

    def to_apc(self, bytes_per_sec: float) -> float:
        """bytes/second -> APC."""
        return bytes_per_sec / (self.cache_line_bytes * self.cpu_frequency_hz)

    def to_gigabytes_per_sec(self, apc: float) -> float:
        """APC -> GB/s (decimal gigabytes, as in the paper's 3.2 GB/s)."""
        return self.to_bytes_per_sec(apc) / 1e9


_DEFAULT_UNIT = BandwidthUnit()


def apc_to_bytes_per_sec(apc: float, unit: BandwidthUnit = _DEFAULT_UNIT) -> float:
    """Convenience wrapper using the paper's default 64 B / 5 GHz context."""
    return unit.to_bytes_per_sec(apc)


def bytes_per_sec_to_apc(bps: float, unit: BandwidthUnit = _DEFAULT_UNIT) -> float:
    """Convenience wrapper using the paper's default 64 B / 5 GHz context."""
    return unit.to_apc(bps)


def conservation_residual(
    alloc: np.ndarray,
    total_bandwidth: float | np.ndarray,
    capacity: np.ndarray | None = None,
    *,
    work_conserving: bool = False,
) -> float:
    """Worst-case violation of the Eq. 2 bandwidth-conservation invariant.

    The invariant (paper Eq. 2 plus the Sec. III-D occupancy bound) for
    an allocation vector ``x`` under budget ``B`` and standalone demands
    ``a`` is::

        x_i >= 0,   x_i <= a_i,   sum_i x_i <= B

    and, for a work-conserving mechanism, additionally
    ``sum_i x_i == min(B, sum_i a_i)``.  Returns the largest amount (in
    APC) by which any of those relations is violated; a feasible
    allocation returns <= 0.  ``alloc`` may be a single vector or a
    stacked ``(k, n)`` matrix with a scalar or ``(k,)`` budget.
    """
    return _residual(
        np.asarray(alloc, dtype=float),
        np.asarray(total_bandwidth, dtype=float),
        capacity,
        work_conserving,
    )


def _residual(
    x: np.ndarray,
    b: np.ndarray,
    capacity: np.ndarray | None,
    work_conserving: bool,
) -> float:
    if not np.isfinite(x).all():
        return float("inf")
    totals = x.sum(axis=-1)
    # negativity (max(-x) == -min(x): negation is exact), budget overrun
    residual = max(float(-x.min()), float((totals - b).max()))
    if capacity is not None:
        cap = np.asarray(capacity, dtype=float)
        residual = max(residual, float((x - cap).max()))  # demand overrun
        if work_conserving:
            expected = np.minimum(b, cap.sum(axis=-1))
            residual = max(residual, float(np.abs(totals - expected).max()))
    return residual


def assert_conservation(
    alloc: np.ndarray,
    total_bandwidth: float | np.ndarray,
    capacity: np.ndarray | None = None,
    *,
    work_conserving: bool = False,
    where: str = "allocation",
) -> np.ndarray:
    """Validate the Eq. 2 conservation invariant and return ``alloc``.

    Every solver that produces an ``APC_shared`` vector routes its
    result through this check (the ``inv-conservation`` rule of
    ``repro-lint`` enforces that by call-graph walk), so a bug that
    over-allocates bandwidth or starves the budget surfaces as an
    :class:`~repro.util.errors.InvariantViolation` at the source instead
    of skewing a figure downstream.  The tolerance scales with the
    budget (``CONSERVATION_ATOL + CONSERVATION_RTOL * |B|``) to absorb
    float rounding in the water-filling/greedy loops.
    """
    x = np.asarray(alloc, dtype=float)
    b = np.asarray(total_bandwidth, dtype=float)
    residual = _residual(x, b, capacity, work_conserving)
    tol = CONSERVATION_ATOL + CONSERVATION_RTOL * max(1.0, float(np.abs(b).max()))
    if residual > tol:
        raise InvariantViolation(
            f"{where}: Eq. 2 conservation violated by {residual:.3e} APC "
            f"(tolerance {tol:.3e}); budget={total_bandwidth!r}"
        )
    return x


def normalize_shares(weights: np.ndarray) -> np.ndarray:
    """Normalize a nonnegative weight vector into shares summing to 1."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ConfigurationError(f"share weights must be finite and >= 0, got {w}")
    total = w.sum()
    if total <= 0:
        raise ConfigurationError("share weights must not all be zero")
    return w / total


def capped_allocation(
    beta: np.ndarray,
    total_bandwidth: float,
    apc_alone: np.ndarray,
    *,
    work_conserving: bool = True,
) -> np.ndarray:
    """Allocate ``total_bandwidth`` by shares, capping at each demand.

    Water-filling: each application receives at most
    ``min(beta_i * remaining_pool_share, apc_alone_i)``; bandwidth that a
    capped application cannot use is redistributed to the others in
    proportion to their shares, iterating until a fixpoint.  With
    ``work_conserving=False`` the leftover is simply left unused (a
    strict reservation system).

    Returns the ``APC_shared`` vector.  Its sum equals
    ``min(total_bandwidth, sum(apc_alone))`` in work-conserving mode.
    """
    beta = np.asarray(beta, dtype=float)
    demand = np.asarray(apc_alone, dtype=float)
    if beta.shape != demand.shape:
        raise ConfigurationError(
            f"beta and apc_alone shape mismatch: {beta.shape} vs {demand.shape}"
        )
    check_positive("total_bandwidth", total_bandwidth)
    if not np.isclose(beta.sum(), 1.0, atol=1e-9):
        raise ConfigurationError(f"shares must sum to 1, got {beta.sum()!r}")

    alloc = np.zeros_like(demand)
    if not work_conserving:
        return assert_conservation(
            np.minimum(beta * total_bandwidth, demand),
            total_bandwidth,
            demand,
            where="capped_allocation",
        )

    active = beta > 0
    remaining = float(total_bandwidth)
    # Each round gives every active app its proportional slice of the
    # remaining pool, capped at its residual demand.  Apps that hit their
    # demand leave the active set; at most n rounds are needed.
    for _ in range(len(beta)):
        if remaining <= 1e-15 or not np.any(active):
            break
        weights = np.where(active, beta, 0.0)
        total_w = weights.sum()
        if total_w <= 0:
            break
        slice_ = remaining * weights / total_w
        take = np.minimum(slice_, demand - alloc)
        alloc += take
        remaining -= float(take.sum())
        newly_capped = active & (demand - alloc <= 1e-15)
        if not np.any(newly_capped):
            break
        active &= ~newly_capped
    # A zero-share app receives nothing even in work-conserving mode, so
    # the conserved total is bounded by the demand of the beta > 0 apps.
    return assert_conservation(
        alloc,
        total_bandwidth,
        np.where(beta > 0, demand, 0.0),
        work_conserving=True,
        where="capped_allocation",
    )


def greedy_allocation(
    order: np.ndarray,
    total_bandwidth: float,
    apc_alone: np.ndarray,
) -> np.ndarray:
    """Strict-priority allocation (the paper's fractional knapsack).

    Applications are served in ``order`` (indices, highest priority
    first); each takes up to its full standalone demand ``apc_alone``;
    the first application that cannot be fully satisfied gets the
    fractional remainder and everyone after it gets nothing
    (paper Sec. III-D/E).
    """
    demand = np.asarray(apc_alone, dtype=float)
    check_positive("total_bandwidth", total_bandwidth)
    alloc = np.zeros_like(demand)
    remaining = float(total_bandwidth)
    idx_order = np.asarray(order, dtype=int)
    for idx in idx_order:
        if remaining <= 0:
            break
        take = min(remaining, float(demand[idx]))
        alloc[idx] = take
        remaining -= take
    # Apps absent from a partial priority order receive nothing, so the
    # conserved total is bounded by the demand of the listed apps.
    served = np.zeros(demand.shape, dtype=bool)
    served[idx_order] = True
    return assert_conservation(
        alloc,
        total_bandwidth,
        np.where(served, demand, 0.0),
        work_conserving=True,
        where="greedy_allocation",
    )
