"""Batch solvers over stacks of partitioning problems.

The scalar API in :mod:`repro.core` answers one question at a time:
given a workload (``APC_alone`` / ``API`` vectors) and a bandwidth
``B``, what is the allocation under scheme X?  A serving system
(:mod:`repro.service`) receives many such questions concurrently and
wants to answer them in one numpy pass.  This module provides the
batch counterparts, operating on stacked ``(n_requests, n_apps)``
arrays with a per-request bandwidth vector ``(n_requests,)``, and
:func:`row_allocate`, one request of :func:`batch_allocate` solved
from Python floats.

Row kernel and vectorized kernels
---------------------------------
The batch entries run vectorized numpy kernels, which iterate over
rounds or priority positions (bounded by ``n_apps``) across all rows
at once.  On a handful of numbers a numpy call costs more than the
arithmetic, so :func:`row_allocate` runs the float row kernels that
also back the scalar API
(:func:`~repro.core.bandwidth.capped_row_allocation` and
:func:`~repro.core.bandwidth.greedy_row_allocation`) and builds no
array but the power weights.  The service solves a group of at most
:data:`ROW_KERNEL_MAX` = 32 numbers (requests x apps) request by
request on it, and stacks a larger one.  Per group of ``sqrt``
(``prio_apc``) solves through
:func:`repro.service.batching.solve_partition_rows`, in microseconds
on a 2-vCPU Xeon (min of 70 timings of 100 calls, alternating the two
paths):

====  ====  =============  ===============
apps  rows  stacked        row_allocate
====  ====  =============  ===============
4     1     76 (43)        13 (7)
4     4     133 (49)       59 (29)
4     8     132 (48)       127 (52)
4     16    136 (53)       232 (102)
8     1     76 (55)        18 (9)
8     4     79 (59)        70 (35)
8     8     85 (63)        142 (71)
====  ====  =============  ===============

From 16 to 128 rows of 4 or 8 apps the stacked ``sqrt`` solve is
2-12x faster per row than the row kernel.

Float identity
--------------
Every kernel performs, row by row, *exactly the same floating point
operations in the same order* as its scalar counterpart
(:func:`repro.core.bandwidth.capped_allocation`,
:func:`repro.core.bandwidth.greedy_allocation`,
:func:`repro.core.knapsack.solve_fractional_knapsack`, the closed
forms of :mod:`repro.core.closed_form`), so on any input the scalar
API accepts, a row's answer does not depend on its stack or on which
kernel solved it.  The service relies on this: a micro-batched solve
must be bit-identical to the single-request solve it replaces
(``tests/service/test_batch_identity.py``,
``tests/core/test_kernel_golden.py``).  Three rules keep the float row
kernels bit-identical to numpy:

* **Sums.** :func:`~repro.core.bandwidth.pairwise_sum` is numpy's
  pairwise summation: in order from 0.0 below 8 terms, eight running
  sums combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` up to 128,
  halves beyond that.
* **Powers.** The power-family weights come from numpy's ``**``.
  numpy's SIMD ``pow`` differs from Python's in about 5% of draws at
  alpha = 2/3 and 1.3, and numpy's ``** 0.5`` is ``sqrt``.
* **Ties.** Where a kernel took ``np.minimum``, the row kernel takes
  its second operand on a tie (``min(0.0, -0.0)`` is ``-0.0``) and
  propagates NaN; where it took the builtin ``min``, so does the row
  kernel.  Priority order is a stable sort by index.

The exceptions: the scalar :class:`~repro.core.qos.QoSPartitioner`
re-packs the best-effort apps into a dense sub-workload while
:func:`batch_qos_plan` masks them in place, which can reassociate the
pairwise sums; agreement there is to ~1 ulp.  The stacked knapsack
``objective`` is an elementwise-product row sum, which can differ from
the scalar solver's BLAS ``np.dot`` by ~1 ulp.

Validation
----------
Each public entry checks its inputs once and then calls a private
``_``-prefixed kernel that trusts them: finite ``(k, n)`` float
matrices of one shape and a finite ``(k,)`` budget, > 0 (>= 0 for the
knapsack); each priority-order row is a permutation of its apps.
Entries that derive shares or values for another kernel check the
derived array only where its construction does not already guarantee
the kernel's precondition.  :func:`row_allocate` checks its Python
floats as :func:`batch_allocate` checks its arrays.  Every kernel ends
in the Eq. 2 check of
:func:`~repro.core.bandwidth.assert_conservation`; the row kernels
check each row against its own budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bandwidth import (
    SHARE_SUM_TOL,
    assert_conservation,
    capped_row_allocation,
    greedy_row_allocation,
    pairwise_sum,
)
from repro.util.errors import ConfigurationError

#: scalar-or-vector bandwidth budget accepted by every batch kernel
BudgetLike = float | np.ndarray

__all__ = [
    "ROW_KERNEL_MAX",
    "as_request_matrix",
    "row_allocate",
    "batch_capped_allocation",
    "batch_greedy_allocation",
    "batch_power_allocation",
    "batch_priority_order",
    "batch_allocate",
    "BatchKnapsackSolution",
    "batch_solve_fractional_knapsack",
    "batch_hsp_square_root",
    "batch_wsp_square_root",
    "batch_hsp_proportional",
    "batch_wsp_proportional",
    "batch_qos_plan",
    "BATCH_SCHEMES",
    "POWER_ALPHA",
]

#: the service solves a group of at most this many numbers (requests x
#: apps) one request at a time on :func:`row_allocate`, and stacks a
#: larger one for :func:`batch_allocate`
ROW_KERNEL_MAX = 32

#: scheme-name -> power-family exponent for the share-based schemes
POWER_ALPHA: dict[str, float] = {
    "equal": 0.0,
    "sqrt": 0.5,
    "twothirds": 2.0 / 3.0,
    "prop": 1.0,
    "nopart": 1.3,
}

#: scheme names accepted by :func:`batch_allocate`
BATCH_SCHEMES: tuple[str, ...] = (
    "equal",
    "prop",
    "sqrt",
    "twothirds",
    "prio_apc",
    "prio_api",
    "nopart",
)


def as_request_matrix(name: str, arr: Any) -> np.ndarray:
    """Validate/convert to a finite, non-empty ``(n_requests, n_apps)`` float array."""
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ConfigurationError(
            f"{name} must be a non-empty (n_requests, n_apps) array, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ConfigurationError(f"{name} must be finite")
    return a


def _as_budget_vector(name: str, b: BudgetLike, n_requests: int) -> np.ndarray:
    vec = np.asarray(b, dtype=float)
    if vec.ndim == 0:
        vec = np.full(n_requests, float(vec))
    if vec.shape != (n_requests,):
        raise ConfigurationError(
            f"{name} must be scalar or shape ({n_requests},), got {vec.shape}"
        )
    if not np.isfinite(vec).all():
        raise ConfigurationError(f"{name} must be finite")
    return vec


def _positive_budget(b: BudgetLike, n_requests: int) -> np.ndarray:
    vec = _as_budget_vector("total_bandwidth", b, n_requests)
    if not (vec > 0).all():
        raise ConfigurationError("total_bandwidth must be > 0 for every request")
    return vec


def _check_beta_rows(beta: np.ndarray) -> None:
    # np.allclose(row_sums, 1.0, atol=1e-9): False for NaN and inf sums
    if not (np.abs(beta.sum(axis=1) - 1.0) <= SHARE_SUM_TOL).all():
        raise ConfigurationError("each beta row must sum to 1")


# ----------------------------------------------------------------------
# share-based schemes: capped water-filling
# ----------------------------------------------------------------------
def batch_capped_allocation(
    beta: np.ndarray,
    total_bandwidth: BudgetLike,
    apc_alone: np.ndarray,
    *,
    work_conserving: bool = True,
) -> np.ndarray:
    """Row-wise :func:`repro.core.bandwidth.capped_allocation`.

    ``beta`` and ``apc_alone`` are ``(k, n)``; ``total_bandwidth`` is a
    scalar or ``(k,)`` vector.  Returns the ``(k, n)`` APC allocations.
    """
    beta = as_request_matrix("beta", beta)
    demand = as_request_matrix("apc_alone", apc_alone)
    if beta.shape != demand.shape:
        raise ConfigurationError(
            f"beta and apc_alone shape mismatch: {beta.shape} vs {demand.shape}"
        )
    budget = _positive_budget(total_bandwidth, beta.shape[0])
    _check_beta_rows(beta)
    return _capped_allocation(beta, budget, demand, work_conserving)


def _capped_allocation(
    beta: np.ndarray,
    budget: np.ndarray,
    demand: np.ndarray,
    work_conserving: bool,
) -> np.ndarray:
    if not work_conserving:
        return assert_conservation(
            np.minimum(beta * budget[:, None], demand),
            budget,
            demand,
            where="batch_capped_allocation",
        )

    k, n = beta.shape
    alloc = np.zeros_like(demand)
    remaining = budget
    active = beta > 0
    # Rows whose scalar loop would have exited keep this mask set so no
    # further round mutates them (freezing preserves bit-identity).
    done = np.zeros(k, dtype=bool)
    for _ in range(n):
        done |= (remaining <= 1e-15) | ~active.any(axis=1)
        if done.all():
            break
        weights = np.where(active, beta, 0.0)
        total_w = weights.sum(axis=1)
        done |= total_w <= 0
        if done.all():
            break
        safe_w = np.where(total_w > 0, total_w, 1.0)
        slice_ = remaining[:, None] * weights / safe_w[:, None]
        take = np.minimum(slice_, demand - alloc)
        take[done] = 0.0
        alloc += take
        remaining = remaining - take.sum(axis=1)
        newly_capped = active & (demand - alloc <= 1e-15)
        done |= ~newly_capped.any(axis=1)
        active &= ~newly_capped
    # Zero-share apps receive nothing even in work-conserving mode, so
    # each row's conserved total is bounded by its beta > 0 demand.
    return assert_conservation(
        alloc,
        budget,
        np.where(beta > 0, demand, 0.0),
        work_conserving=True,
        where="batch_capped_allocation",
    )


def batch_power_allocation(
    apc_alone: np.ndarray,
    total_bandwidth: BudgetLike,
    alpha: float,
    *,
    work_conserving: bool = True,
) -> np.ndarray:
    """Row-wise power-family allocation ``beta_i ~ APC_alone,i ** alpha``.

    Covers Equal (0), Square_root (0.5), 2/3_power (2/3), Proportional
    (1) and the No_partitioning stand-in (gamma > 1).
    """
    if not np.isfinite(alpha):
        raise ConfigurationError(f"alpha must be finite, got {alpha!r}")
    a = as_request_matrix("apc_alone", apc_alone)
    return _power_allocation(a, total_bandwidth, alpha, work_conserving)


def _power_allocation(
    a: np.ndarray,
    total_bandwidth: BudgetLike,
    alpha: float,
    work_conserving: bool,
) -> np.ndarray:
    """Power-family solve over a validated ``a``: derive and check the
    shares, validate the budget, then water-fill."""
    w = a**alpha
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ConfigurationError("power weights must be finite and >= 0")
    totals = w.sum(axis=1)
    if not (totals > 0).all():
        raise ConfigurationError("share weights must not all be zero")
    beta = w / totals[:, None]
    budget = _positive_budget(total_bandwidth, a.shape[0])
    # beta lies in [0, 1] by construction, but an overflowing or
    # subnormal total can still leave a row far from summing to 1
    _check_beta_rows(beta)
    return _capped_allocation(beta, budget, a, work_conserving)


# ----------------------------------------------------------------------
# priority schemes: greedy fill
# ----------------------------------------------------------------------
def batch_priority_order(
    scheme: str, apc_alone: np.ndarray, api: np.ndarray | None
) -> np.ndarray:
    """Per-row priority order for ``prio_apc`` / ``prio_api``."""
    if scheme == "prio_apc":
        return np.argsort(as_request_matrix("apc_alone", apc_alone), axis=1, kind="stable")
    if scheme == "prio_api":
        if api is None:
            raise ConfigurationError("prio_api needs the api matrix")
        return np.argsort(as_request_matrix("api", api), axis=1, kind="stable")
    raise ConfigurationError(f"not a priority scheme: {scheme!r}")


def batch_greedy_allocation(
    order: np.ndarray,
    total_bandwidth: BudgetLike,
    apc_alone: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`repro.core.bandwidth.greedy_allocation`.

    ``order`` is ``(k, n)`` app indices per request, highest priority
    first, each row a permutation of ``0..n-1``; the fill walks priority
    positions, vectorized over requests, so each row sees the scalar op
    sequence exactly.
    """
    demand = as_request_matrix("apc_alone", apc_alone)
    order = np.asarray(order, dtype=int)
    if order.shape != demand.shape:
        raise ConfigurationError(
            f"order must have shape {demand.shape}, got {order.shape}"
        )
    if not (np.sort(order, axis=1) == np.arange(demand.shape[1])).all():
        raise ConfigurationError("each order row must be a permutation of its app indices")
    budget = _positive_budget(total_bandwidth, demand.shape[0])
    return _greedy_allocation(order, budget, demand)


def _greedy_allocation(
    order: np.ndarray, budget: np.ndarray, demand: np.ndarray
) -> np.ndarray:
    k, n = demand.shape
    alloc = np.zeros_like(demand)
    remaining = budget
    rows = np.arange(k)
    for j in range(n):
        idx = order[:, j]
        take = np.minimum(remaining, demand[rows, idx])
        alloc[rows, idx] = take
        remaining = remaining - take
    return assert_conservation(
        alloc, budget, demand, work_conserving=True, where="batch_greedy_allocation"
    )


def batch_allocate(
    scheme: str,
    apc_alone: np.ndarray,
    total_bandwidth: BudgetLike,
    *,
    api: np.ndarray | None = None,
    work_conserving: bool = True,
) -> np.ndarray:
    """Dispatch a stacked allocation solve to the right batch kernel.

    Row ``i`` of the result equals
    ``scheme_by_name(scheme).allocate(workload_i, B_i)`` bit-for-bit.
    """
    a = as_request_matrix("apc_alone", apc_alone)
    if not (a > 0).all():
        # mirror AppProfile's validation: a zero APC_alone app would
        # produce infinite power-family weights downstream
        raise ConfigurationError("apc_alone must be > 0")
    alpha = POWER_ALPHA.get(scheme)
    if alpha is not None:
        return _power_allocation(a, total_bandwidth, alpha, work_conserving)
    if scheme == "prio_apc":
        order = np.argsort(a, axis=1, kind="stable")
    elif scheme == "prio_api":
        order = batch_priority_order(scheme, a, api)
        if order.shape != a.shape:
            raise ConfigurationError(
                f"api must have shape {a.shape}, got {order.shape}"
            )
    else:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {sorted(BATCH_SCHEMES)}"
        )
    return _greedy_allocation(order, _positive_budget(total_bandwidth, a.shape[0]), a)


def row_allocate(
    scheme: str,
    apc_alone: Sequence[float],
    total_bandwidth: float,
    *,
    api: Sequence[float] | None = None,
    work_conserving: bool = True,
) -> list[float]:
    """One request of :func:`batch_allocate`, solved from Python floats.

    Checks its input as :func:`batch_allocate` does and runs the row
    kernels without building a stack; only the power weights take a
    numpy ``**``.  The service solves its small analytic groups here.
    """
    a = list(apc_alone)
    if not a or not all(0.0 < x < math.inf for x in a):
        raise ConfigurationError("apc_alone must be a non-empty row, finite and > 0")
    budget = float(total_bandwidth)
    if not 0.0 < budget < math.inf:
        raise ConfigurationError("total_bandwidth must be finite and > 0")
    alpha = POWER_ALPHA.get(scheme)
    if alpha is not None:
        # the checks of _power_allocation, on one row
        weights: list[float] = (np.array(a) ** alpha).tolist()
        if not all(0.0 <= x < math.inf for x in weights):
            raise ConfigurationError("power weights must be finite and >= 0")
        total = pairwise_sum(weights)
        if not total > 0:
            raise ConfigurationError("share weights must not all be zero")
        beta = [x / total for x in weights]
        if not abs(pairwise_sum(beta) - 1.0) <= SHARE_SUM_TOL:
            raise ConfigurationError("each beta row must sum to 1")
        return capped_row_allocation(
            beta, budget, a, work_conserving=work_conserving,
            where="batch_capped_allocation",
        )
    if scheme == "prio_apc":
        keys = a
    elif scheme == "prio_api":
        if api is None:
            raise ConfigurationError("prio_api needs the api matrix")
        keys = list(api)
        if len(keys) != len(a) or not all(map(math.isfinite, keys)):
            raise ConfigurationError(f"api must be {len(a)} finite numbers")
    else:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {sorted(BATCH_SCHEMES)}"
        )
    order = sorted(range(len(a)), key=keys.__getitem__)
    return greedy_row_allocation(order, budget, a, where="batch_greedy_allocation")


# ----------------------------------------------------------------------
# fractional knapsack
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchKnapsackSolution:
    """Stacked result of :func:`batch_solve_fractional_knapsack`."""

    #: per-request per-item quantities, shape (k, n)
    quantities: np.ndarray
    #: per-request objective values ``sum_i v_i q_i``, shape (k,)
    objective: np.ndarray
    #: per-request fill order (highest density first), shape (k, n)
    fill_order: np.ndarray
    #: per-request index of the partially filled item, -1 if none, shape (k,)
    split_item: np.ndarray

    @property
    def used_capacity(self) -> np.ndarray:
        return self.quantities.sum(axis=1)


def batch_solve_fractional_knapsack(
    values: np.ndarray,
    capacities: np.ndarray,
    budgets: BudgetLike,
) -> BatchKnapsackSolution:
    """Row-wise :func:`repro.core.knapsack.solve_fractional_knapsack`.

    Quantities match the scalar solver bit-for-bit (same greedy walk);
    the stacked ``objective`` is an elementwise-product row sum, which
    can differ from the scalar solver's BLAS ``np.dot`` by ~1 ulp.
    """
    v = as_request_matrix("values", values)
    cap = as_request_matrix("capacities", capacities)
    if v.shape != cap.shape:
        raise ConfigurationError(
            f"values/capacities shape mismatch: {v.shape} vs {cap.shape}"
        )
    if (cap < 0).any():
        raise ConfigurationError("capacities must be >= 0")
    budget = _as_budget_vector("budgets", budgets, v.shape[0])
    if (budget < 0).any():
        raise ConfigurationError("budgets must be >= 0")
    return _solve_fractional_knapsack(v, cap, budget)


def _solve_fractional_knapsack(
    v: np.ndarray, cap: np.ndarray, budget: np.ndarray
) -> BatchKnapsackSolution:
    k, n = v.shape
    order = np.argsort(-v, axis=1, kind="stable")
    q = np.zeros_like(cap)
    remaining = budget
    split = np.full(k, -1, dtype=int)
    rows = np.arange(k)
    for j in range(n):
        idx = order[:, j]
        item_cap = cap[rows, idx]
        take = np.minimum(remaining, item_cap)
        q[rows, idx] = take
        # A partial fill (possible only while budget remains) drains the
        # row's budget to exactly zero, so later positions take nothing;
        # only the split bookkeeping needs the explicit mask.
        partial = (remaining > 0) & (take < item_cap) & (split == -1)
        split[partial] = idx[partial]
        remaining = remaining - take
    return BatchKnapsackSolution(
        quantities=assert_conservation(
            q,
            budget,
            cap,
            work_conserving=True,
            where="batch_solve_fractional_knapsack",
        ),
        objective=(v * q).sum(axis=1),
        fill_order=order,
        split_item=split,
    )


# ----------------------------------------------------------------------
# closed forms (paper Eqs. 4, 6, 8), stacked
# ----------------------------------------------------------------------
def _positive_row_sums(name: str, terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms``, guarded against zero/underflow denominators."""
    totals = terms.sum(axis=1)
    if not ((totals > 0) & np.isfinite(totals)).all():
        raise ConfigurationError(f"{name} must sum to a positive finite value per row")
    return totals


def batch_hsp_square_root(apc_alone: np.ndarray, total_bandwidth: BudgetLike) -> np.ndarray:
    """Eq. (4) per row: ``N * B / (sum_i sqrt(a_i))^2``."""
    a = as_request_matrix("apc_alone", apc_alone)
    b = _as_budget_vector("total_bandwidth", total_bandwidth, a.shape[0])
    s = _positive_row_sums("sqrt(apc_alone)", np.sqrt(a))
    return a.shape[1] * b / (s * s)


def batch_wsp_square_root(apc_alone: np.ndarray, total_bandwidth: BudgetLike) -> np.ndarray:
    """Self-consistent Eq. (6) per row (see :mod:`repro.core.closed_form`)."""
    a = as_request_matrix("apc_alone", apc_alone)
    b = _as_budget_vector("total_bandwidth", total_bandwidth, a.shape[0])
    root_sum = _positive_row_sums("sqrt(apc_alone)", np.sqrt(a))
    return b / a.shape[1] * (1.0 / np.sqrt(a)).sum(axis=1) / root_sum


def batch_hsp_proportional(apc_alone: np.ndarray, total_bandwidth: BudgetLike) -> np.ndarray:
    """Eq. (8) per row: ``B / sum_i a_i``."""
    a = as_request_matrix("apc_alone", apc_alone)
    b = _as_budget_vector("total_bandwidth", total_bandwidth, a.shape[0])
    totals = _positive_row_sums("apc_alone", a)
    return b / totals


def batch_wsp_proportional(apc_alone: np.ndarray, total_bandwidth: BudgetLike) -> np.ndarray:
    """Eq. (8) per row (Wsp equals Hsp under Proportional)."""
    return batch_hsp_proportional(apc_alone, total_bandwidth)


# ----------------------------------------------------------------------
# QoS plans (paper Sec. III-G), stacked
# ----------------------------------------------------------------------
def batch_qos_plan(
    apc_alone: np.ndarray,
    api: np.ndarray,
    ipc_targets: np.ndarray,
    total_bandwidth: BudgetLike,
    *,
    objective: str = "wsp",
) -> dict[str, Any]:
    """Stacked QoS-guaranteed partitioning.

    Parameters
    ----------
    apc_alone, api:
        ``(k, n)`` workload matrices.
    ipc_targets:
        ``(k, n)`` matrix of IPC guarantees; NaN marks best-effort apps.
    total_bandwidth:
        Scalar or ``(k,)`` bandwidth per request.
    objective:
        Best-effort objective: ``hsp`` (Square_root), ``minf``
        (Proportional), ``wsp`` (Priority_APC knapsack) or ``ipcsum``
        (Priority_API knapsack).

    Returns a dict of stacked arrays: ``apc_shared`` (k, n), ``b_qos``
    (k,), ``b_best_effort`` (k,), and boolean masks ``feasible`` (k,)
    and ``qos_mask`` (k, n).  Infeasible rows (a target above the app's
    standalone IPC, or reservations exceeding B) get a zero allocation
    and ``feasible=False`` instead of raising, so one bad request never
    poisons a batch.
    """
    a = as_request_matrix("apc_alone", apc_alone)
    p = as_request_matrix("api", api)
    if a.shape != p.shape:
        raise ConfigurationError(
            f"apc_alone/api shape mismatch: {a.shape} vs {p.shape}"
        )
    t = np.asarray(ipc_targets, dtype=float)
    if t.ndim == 1:
        t = t[None, :]
    if t.shape != a.shape:
        raise ConfigurationError(
            f"ipc_targets must have shape {a.shape}, got {t.shape}"
        )
    if not ((a > 0).all() and (p > 0).all()):
        raise ConfigurationError("apc_alone and api must be positive")
    budget = _positive_budget(total_bandwidth, a.shape[0])
    if objective not in ("hsp", "minf", "wsp", "ipcsum"):
        raise ConfigurationError(
            f"unknown best-effort objective {objective!r}; "
            "available: ['hsp', 'ipcsum', 'minf', 'wsp']"
        )

    qos_mask = ~np.isnan(t)
    if not qos_mask.any():
        raise ConfigurationError("each QoS request needs at least one target")
    targets = np.where(qos_mask, t, 0.0)
    if not (np.isfinite(targets) & (targets >= 0)).all():
        raise ConfigurationError("ipc_targets must be finite and >= 0")
    ipc_alone = a / p

    # B_QoS,i = IPC_target,i * API_i (Sec. III-G); Eq. (11) remainder.
    reservations = np.where(qos_mask, targets * p, 0.0)
    b_qos = reservations.sum(axis=1)
    b_be = budget - b_qos
    feasible = (b_be >= -1e-12) & ~(
        qos_mask & (targets > ipc_alone + 1e-12)
    ).any(axis=1) & qos_mask.any(axis=1)
    b_be = np.maximum(b_be, 0.0)

    be_mask = ~qos_mask
    apc = reservations.copy()
    has_be = be_mask.any(axis=1) & (b_be > 0) & feasible
    if has_be.any():
        # Mask QoS apps out of the best-effort solve in place: zero
        # weight/capacity means they receive nothing extra.  The solved
        # rows have a finite budget > 0 and finite capacities >= 0; the
        # derived shares and values are checked as the public kernels
        # would check them.
        be_a = np.where(be_mask, a, 0.0)
        n_be = be_mask.sum(axis=1)
        rows = np.where(has_be)[0]
        if objective in ("hsp", "minf"):
            alpha = 0.5 if objective == "hsp" else 1.0
            w = np.where(be_mask, a**alpha, 0.0)
            beta = (w / np.where(has_be, w.sum(axis=1), 1.0)[:, None])[rows]
            _check_beta_rows(beta)
            apc_be = _capped_allocation(beta, b_be[rows], be_a[rows], True)
        else:
            # Masked (QoS) items get value 0 and capacity 0: wherever the
            # greedy walk places them, they take nothing.
            if objective == "wsp":
                v = np.where(be_mask, 1.0 / (np.maximum(n_be, 1)[:, None] * a), 0.0)
            else:  # ipcsum
                v = np.where(be_mask, 1.0 / p, 0.0)
            v = v[rows]
            if not np.isfinite(v).all():
                raise ConfigurationError("values must be finite")
            apc_be = _solve_fractional_knapsack(
                v, be_a[rows], b_be[rows]
            ).quantities
        apc[rows] = np.where(be_mask[rows], apc_be, apc[rows])

    apc[~feasible] = 0.0
    # QoS plans are not work-conserving overall (guaranteed apps hold
    # only their reservation), so only the upper bounds are asserted.
    return {
        "apc_shared": assert_conservation(
            apc, budget, a, where="batch_qos_plan"
        ),
        "b_qos": b_qos,
        "b_best_effort": b_be,
        "feasible": feasible,
        "qos_mask": qos_mask,
        "objective": objective,
    }
