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

The allocators run on rows of Python floats (``*_row_allocation``): at
the 4-8 apps of a request, a hundred numpy calls on a handful of
numbers cost more than the arithmetic.  Each row kernel does the
floating-point operations of the numpy kernel it replaced, in the same
order, so its answers are bit-identical; :func:`pairwise_sum`
reproduces numpy's summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, overload

import numpy as np

from repro.util.errors import ConfigurationError, InvariantViolation
from repro.util.validation import check_positive

__all__ = [
    "BandwidthUnit",
    "normalize_shares",
    "pairwise_sum",
    "capped_allocation",
    "capped_row_allocation",
    "greedy_allocation",
    "greedy_row_allocation",
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


# perfbench/checks.py checks every served allocation against Eq. 2
# with this residual.
def conservation_residual(  # reprolint: disable=dead-code
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


def _row_residual(
    x: list[float],
    b: float,
    capacity: list[float] | None,
    work_conserving: bool,
) -> float:
    """:func:`_residual` of one float row, with the same sums."""
    if not all(map(math.isfinite, x)):
        return math.inf
    total = pairwise_sum(x)
    residual = max(-min(x), total - b)
    if capacity is not None:
        residual = max(residual, max(xi - ci for xi, ci in zip(x, capacity)))
        if work_conserving:
            cap_total = pairwise_sum(capacity)
            expected = b if b < cap_total or b != b else cap_total  # np.minimum
            residual = max(residual, abs(total - expected))
    return residual


@overload
def assert_conservation(
    alloc: list[float],
    total_bandwidth: float,
    capacity: list[float] | None = None,
    *,
    work_conserving: bool = False,
    where: str = "allocation",
) -> list[float]: ...


@overload
def assert_conservation(
    alloc: np.ndarray,
    total_bandwidth: float | np.ndarray,
    capacity: np.ndarray | None = None,
    *,
    work_conserving: bool = False,
    where: str = "allocation",
) -> np.ndarray: ...


def assert_conservation(
    alloc: list[float] | np.ndarray,
    total_bandwidth: float | np.ndarray,
    capacity: list[float] | np.ndarray | None = None,
    *,
    work_conserving: bool = False,
    where: str = "allocation",
) -> list[float] | np.ndarray:
    """Validate the Eq. 2 conservation invariant and return ``alloc``.

    Every solver that produces an ``APC_shared`` vector routes its
    result through this check (the ``inv-conservation`` rule of
    ``repro-lint`` enforces that by call-graph walk), so a bug that
    over-allocates bandwidth or starves the budget surfaces as an
    :class:`~repro.util.errors.InvariantViolation` at the source instead
    of skewing a figure downstream.  The tolerance scales with the
    budget (``CONSERVATION_ATOL + CONSERVATION_RTOL * |B|``) to absorb
    float rounding in the water-filling/greedy loops.

    ``alloc`` is either an array (a vector or a stacked ``(k, n)``
    matrix) or a row kernel's list of floats, which is checked, and
    returned, without a numpy call.
    """
    if isinstance(alloc, list):
        b = float(total_bandwidth)
        row_cap = capacity.tolist() if isinstance(capacity, np.ndarray) else capacity
        residual = _row_residual(alloc, b, row_cap, work_conserving)
        scale = abs(b)
        checked: list[float] | np.ndarray = alloc
    else:
        budget = np.asarray(total_bandwidth, dtype=float)
        cap = None if capacity is None else np.asarray(capacity, dtype=float)
        checked = np.asarray(alloc, dtype=float)
        residual = _residual(checked, budget, cap, work_conserving)
        scale = float(np.abs(budget).max())
    tol = CONSERVATION_ATOL + CONSERVATION_RTOL * max(1.0, scale)
    if residual > tol:
        raise InvariantViolation(
            f"{where}: Eq. 2 conservation violated by {residual:.3e} APC "
            f"(tolerance {tol:.3e}); budget={total_bandwidth!r}"
        )
    return checked


def normalize_shares(weights: np.ndarray) -> np.ndarray:
    """Normalize a nonnegative weight vector into shares summing to 1."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ConfigurationError(f"share weights must be finite and >= 0, got {w}")
    total = w.sum()
    if total <= 0:
        raise ConfigurationError("share weights must not all be zero")
    return w / total


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a row of floats, bit for bit.

    numpy sums a contiguous float64 row pairwise: fewer than 8 terms in
    order from 0.0; up to 128 terms in eight running sums, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` before the remainder is added
    in order; beyond 128 terms, as two halves split at a multiple of 8.
    The reduction then adds its 0.0 identity, so a row of ``-0.0`` sums
    to ``0.0``.  The builtin ``sum`` does neither (and compensates from
    Python 3.12 on).
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return 0.0 + (pairwise_sum(values[:half]) + pairwise_sum(values[half:]))
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, n):
        total += values[i]
    return 0.0 + total


#: ``np.isclose(shares.sum(), 1.0, atol=1e-9)`` spelled out: its default
#: ``rtol=1e-5`` times ``|1.0|`` plus ``atol``
SHARE_SUM_TOL = 1e-9 + 1e-5


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
    shares = beta.ravel().tolist()
    total = pairwise_sum(shares)
    if not abs(total - 1.0) <= SHARE_SUM_TOL:
        raise ConfigurationError(f"shares must sum to 1, got {total!r}")
    return np.array(
        capped_row_allocation(
            shares,
            float(total_bandwidth),
            demand.ravel().tolist(),
            work_conserving=work_conserving,
        )
    ).reshape(demand.shape)


def capped_row_allocation(
    beta: list[float],
    budget: float,
    demand: list[float],
    *,
    work_conserving: bool = True,
    where: str = "capped_allocation",
) -> list[float]:
    """The water-fill of :func:`capped_allocation` on one row of floats.

    Trusts its input: the shares sum to 1 and the budget is > 0.  Where
    the numpy kernel took ``np.minimum(a, b)``, this takes ``b`` on a
    tie and propagates a NaN ``a``, as numpy does.
    """
    if not work_conserving:
        alloc = [
            x if (x := s * budget) < d or x != x else d for s, d in zip(beta, demand)
        ]
        return assert_conservation(alloc, budget, demand, where=where)

    n = len(beta)
    alloc = [0.0] * n
    active = [s > 0 for s in beta]
    remaining = budget
    # Each round gives every active app its proportional slice of the
    # remaining pool, capped at its residual demand.  Apps that hit their
    # demand leave the active set; at most n rounds are needed.
    for _ in range(n):
        if remaining <= 1e-15 or True not in active:
            break
        weights = [s if on else 0.0 for s, on in zip(beta, active)]
        total_w = pairwise_sum(weights)
        if total_w <= 0:
            break
        # take = np.minimum(remaining * weights / total_w, demand - alloc)
        take = [
            x if (x := remaining * w / total_w) < (h := d - a) or x != x else h
            for w, d, a in zip(weights, demand, alloc)
        ]
        alloc = [a + t for a, t in zip(alloc, take)]
        remaining -= pairwise_sum(take)
        still = [on and not d - a <= 1e-15 for on, d, a in zip(active, demand, alloc)]
        if still == active:  # nobody newly capped
            break
        active = still
    # A zero-share app receives nothing even in work-conserving mode, so
    # the conserved total is bounded by the demand of the beta > 0 apps.
    return assert_conservation(
        alloc,
        budget,
        [d if s > 0 else 0.0 for s, d in zip(beta, demand)],
        work_conserving=True,
        where=where,
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
    check_positive("total_bandwidth", total_bandwidth)
    return np.array(
        greedy_row_allocation(
            np.asarray(order, dtype=int).tolist(),
            float(total_bandwidth),
            np.asarray(apc_alone, dtype=float).tolist(),
        )
    )


def greedy_row_allocation(
    order: list[int],
    budget: float,
    demand: list[float],
    *,
    where: str = "greedy_allocation",
) -> list[float]:
    """The fill of :func:`greedy_allocation` on one row of floats.

    Trusts its input: the budget is > 0.  Each take is the builtin
    ``min(remaining, demand)``, as the numpy kernel's was.
    """
    alloc = [0.0] * len(demand)
    remaining = budget
    for idx in order:
        if remaining <= 0:
            break
        d = demand[idx]
        take = d if d < remaining else remaining
        alloc[idx] = take
        remaining -= take
    # Apps absent from a partial priority order receive nothing, so the
    # conserved total is bounded by the demand of the listed apps.
    served = [False] * len(demand)
    for idx in order:
        served[idx] = True
    return assert_conservation(
        alloc,
        budget,
        [d if on else 0.0 for d, on in zip(demand, served)],
        work_conserving=True,
        where=where,
    )
