"""Fractional-knapsack solver (paper Sec. III-D/E).

The paper formulates maximizing a linear objective
``sum_i v_i * APC_shared,i`` under the bandwidth constraint
``sum_i APC_shared,i = B`` and the per-app occupancy bound
``APC_shared,i <= APC_alone,i`` as a fractional knapsack problem:
``APC_shared,i`` is the (divisible) quantity of item ``i``, ``v_i`` its
value density, and ``B`` the knapsack capacity.  The greedy rule --
fill items in decreasing value density -- is optimal.

* Weighted speedup:  ``v_i = 1 / (N * APC_alone,i)``  -> Priority_APC.
* Sum of IPCs:       ``v_i = 1 / API_i``              -> Priority_API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.bandwidth import assert_conservation
from repro.util.errors import ConfigurationError

__all__ = ["KnapsackSolution", "solve_fractional_knapsack"]


@dataclass(frozen=True)
class KnapsackSolution:
    """Result of the greedy fractional-knapsack fill."""

    #: per-item quantity taken (the APC allocation)
    quantities: np.ndarray
    #: objective value ``sum_i v_i * q_i``
    objective: float
    #: item indices in the order they were filled (highest density first)
    fill_order: np.ndarray
    #: index of the item that received a partial fill, or -1 if none
    split_item: int

    @property
    def used_capacity(self) -> float:
        return float(self.quantities.sum())


def solve_fractional_knapsack(
    values: np.ndarray,
    capacities: np.ndarray,
    budget: float,
) -> KnapsackSolution:
    """Greedy optimal solution of the fractional knapsack.

    Parameters
    ----------
    values:
        Per-item value density ``v_i`` (value per unit quantity).
    capacities:
        Per-item maximum quantity (the ``APC_alone`` bounds).
    budget:
        Total quantity available (the bandwidth ``B``).

    Ties in value density are broken by item index (stable), matching the
    deterministic priority encoding of the paper's scheduler.  The fill
    runs on Python floats; the objective stays a BLAS ``np.dot``, whose
    summation order is the BLAS build's.
    """
    v = np.asarray(values, dtype=float)
    cap = np.asarray(capacities, dtype=float)
    if v.shape != cap.shape or v.ndim != 1:
        raise ConfigurationError(
            f"values/capacities must be equal-length 1-D, got {v.shape} vs {cap.shape}"
        )
    caps = cap.tolist()
    if any(c < 0 for c in caps):
        raise ConfigurationError("capacities must be >= 0")
    v_row = v.tolist()
    if not all(map(math.isfinite, v_row)) or not all(map(math.isfinite, caps)):
        raise ConfigurationError("values and capacities must be finite")
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget!r}")

    # ``sorted`` is stable, as ``np.argsort(kind="stable")`` is, and each
    # take is the builtin ``min(remaining, capacity)``
    neg = [-x for x in v_row]
    order = sorted(range(len(v_row)), key=neg.__getitem__)
    q = [0.0] * len(caps)
    remaining = float(budget)
    split = -1
    for idx in order:
        if remaining <= 0:
            break
        c = caps[idx]
        take = c if c < remaining else remaining
        q[idx] = take
        remaining -= take
        if take < c:
            split = idx
            break
    quantities = np.array(
        assert_conservation(
            q, float(budget), caps, work_conserving=True, where="solve_fractional_knapsack"
        )
    )
    return KnapsackSolution(
        quantities=quantities,
        objective=float(np.dot(v, quantities)),
        fill_order=np.array(order, dtype=np.intp),
        split_item=split,
    )
