# reprolint: disable-file=dead-code
# Paper content: the closed forms of Sec. III, Eqs. (4), (6) and (8),
# checked against the explicit allocations by tests/core/test_closed_form.py.
"""Closed-form performance expressions derived in the paper (Sec. III).

These give the value of a metric under a named partitioning scheme
without constructing the allocation explicitly:

* Eq. (4):  max Hsp under Square_root:
  ``Hsp = N * B / (sum_i sqrt(APC_alone,i))^2``
* Eq. (6):  Wsp under Square_root:
  ``Wsp = B / N * (sum_i 1/sqrt(APC_alone,i))^2``

  (Note: Eq. (6) as printed in the paper omits a normalization; the
  consistent form -- the one that matches evaluating Eq. (9) on the
  Square_root allocation -- is
  ``Wsp = B/N * sum_i (1/sqrt(APC_alone,i)) / sum_j sqrt(APC_alone,j)``
  which we derive below and cross-check against the explicit allocation
  in the test suite.  We expose both the literal printed form and the
  self-consistent form.)
* Eq. (8):  Hsp = Wsp under Proportional: ``B / sum_i APC_alone,i``.

The Cauchy-inequality dominance relations of Sec. III-C are provided as
predicates so the test-suite can assert them for arbitrary workloads.

All expressions here assume the *uncapped* regime
``APC_shared,i <= APC_alone,i`` for every app -- the regime in which the
paper's Lagrange-multiplier derivations are exact.  Helper
:func:`sqrt_allocation_is_uncapped` tells you whether that holds.
"""

from __future__ import annotations

import numpy as np

from repro.core.apps import Workload
from repro.util.errors import ConfigurationError

__all__ = [
    "hsp_square_root",
    "wsp_square_root",
    "wsp_square_root_paper_form",
    "hsp_proportional",
    "wsp_proportional",
    "sqrt_allocation_is_uncapped",
    "proportional_allocation_is_uncapped",
    "cauchy_dominance_holds",
]


def _positive_sum(name: str, terms: np.ndarray) -> float:
    """Sum of ``terms``, guarded against zero/underflow denominators."""
    total = float(terms.sum())
    if not total > 0:
        raise ConfigurationError(f"{name} must sum to a positive value")
    return total


def hsp_square_root(workload: Workload, total_bandwidth: float) -> float:
    """Eq. (4): the maximum harmonic weighted speedup."""
    s = _positive_sum("sqrt(apc_alone)", np.sqrt(workload.apc_alone))
    # s * s, not s**2: scalar np.float64.__pow__ routes through libm pow
    # and can be 1 ulp off the exact product, which would break bit
    # identity with the vectorized batch kernel (repro.core.batch).
    return float(workload.n * total_bandwidth / (s * s))


def wsp_square_root(workload: Workload, total_bandwidth: float) -> float:
    """Weighted speedup of the Square_root allocation (self-consistent form).

    Substituting Eq. (5) into Eq. (9):
    ``Wsp = (B/N) * (sum_i 1/sqrt(a_i)) / (sum_j sqrt(a_j))``
    with ``a_i = APC_alone,i``.
    """
    a = workload.apc_alone
    root_sum = _positive_sum("sqrt(apc_alone)", np.sqrt(a))
    return float(
        total_bandwidth / workload.n * np.sum(1.0 / np.sqrt(a)) / root_sum
    )


def wsp_square_root_paper_form(workload: Workload, total_bandwidth: float) -> float:
    """Eq. (6) exactly as printed: ``B/N * (sum_i 1/sqrt(a_i))^2``.

    Kept for reference; see module docstring for why the self-consistent
    form differs.  The dominance relations of Sec. III-C hold for both.
    """
    a = workload.apc_alone
    return float(total_bandwidth / workload.n * np.sum(1.0 / np.sqrt(a)) ** 2)


def hsp_proportional(workload: Workload, total_bandwidth: float) -> float:
    """Eq. (8): Hsp under Proportional partitioning."""
    total_demand = _positive_sum("apc_alone", workload.apc_alone)
    return float(total_bandwidth / total_demand)


def wsp_proportional(workload: Workload, total_bandwidth: float) -> float:
    """Eq. (8): Wsp under Proportional partitioning (equals Hsp)."""
    return hsp_proportional(workload, total_bandwidth)


def sqrt_allocation_is_uncapped(workload: Workload, total_bandwidth: float) -> bool:
    """True iff the Square_root shares stay below every app's demand."""
    a = workload.apc_alone
    root = np.sqrt(a)
    root_sum = _positive_sum("sqrt(apc_alone)", root)
    shares = root / root_sum
    return bool(np.all(shares * total_bandwidth <= a + 1e-12))


def proportional_allocation_is_uncapped(
    workload: Workload, total_bandwidth: float
) -> bool:
    """True iff the Proportional shares stay below every app's demand.

    Proportional shares are ``a_i / sum(a)`` so this reduces to
    ``B <= sum(a)`` -- the total bandwidth not exceeding total demand.
    """
    return bool(total_bandwidth <= workload.apc_alone.sum() + 1e-12)


def cauchy_dominance_holds(workload: Workload, total_bandwidth: float) -> bool:
    """Sec. III-C: Square_root dominates Proportional on Hsp (and Wsp).

    By the Cauchy-Schwarz inequality,
    ``(sum sqrt(a_i))^2 <= N * sum a_i``, hence Eq. (4) >= Eq. (8).
    This predicate evaluates both closed forms and checks the relation
    numerically (used by property tests over random workloads).
    """
    hsp_sqrt = hsp_square_root(workload, total_bandwidth)
    hsp_prop = hsp_proportional(workload, total_bandwidth)
    wsp_sqrt = wsp_square_root(workload, total_bandwidth)
    wsp_prop = wsp_proportional(workload, total_bandwidth)
    eps = 1e-12
    return hsp_sqrt >= hsp_prop - eps and wsp_sqrt >= wsp_prop - eps
