"""Property suite for the stacked allocation kernels (:mod:`repro.core.batch`).

Each public entry validates its inputs once and then runs unchecked
private kernels.  These properties pin what that must preserve:

* a stacked row equals the same row solved alone, the scalar
  ``scheme_by_name(...).allocate`` of that row and ``row_allocate`` of
  its Python floats, bit for bit -- the stacks run the vectorized
  kernels, so they check the float row kernels against them;
* every row satisfies Eq. 2 conservation and non-negativity;
* every public entry still rejects malformed input with
  :class:`~repro.util.errors.ConfigurationError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AppProfile, Workload, scheme_by_name
from repro.core.bandwidth import (
    CONSERVATION_ATOL,
    CONSERVATION_RTOL,
    conservation_residual,
)
from repro.core.batch import (
    BATCH_SCHEMES,
    batch_allocate,
    batch_capped_allocation,
    batch_greedy_allocation,
    batch_hsp_proportional,
    batch_hsp_square_root,
    batch_power_allocation,
    batch_priority_order,
    batch_qos_plan,
    batch_solve_fractional_knapsack,
    batch_wsp_square_root,
    row_allocate,
)
from repro.util.errors import ConfigurationError


@st.composite
def stacks(draw):
    """``(apc_alone, api, bandwidth)`` for k in [1, 64], n in [1, 8]."""
    k = draw(st.integers(1, 64))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    apc = rng.uniform(1e-4, 0.02, size=(k, n))
    if draw(st.booleans()):
        apc[:, 1:] = apc[:, :1]  # priority ties must break identically
    api = rng.uniform(1e-3, 0.08, size=(k, n))
    # from heavily oversubscribed to every demand met
    bandwidth = apc.sum(axis=1) * rng.uniform(0.1, 1.5, size=k)
    return apc, api, bandwidth


def _workload(apc_row, api_row) -> Workload:
    return Workload.of(
        "row",
        [
            AppProfile(f"a{j}", api=float(api_row[j]), apc_alone=float(apc_row[j]))
            for j in range(len(apc_row))
        ],
    )


@given(stacks(), st.sampled_from(BATCH_SCHEMES), st.booleans())
@settings(max_examples=120, deadline=None)
def test_stacked_rows_match_alone_and_scalar(stack, scheme, work_conserving):
    apc, api, bandwidth = stack
    stacked = batch_allocate(
        scheme, apc, bandwidth, api=api, work_conserving=work_conserving
    )
    assert stacked.shape == apc.shape
    solver = scheme_by_name(scheme)
    for i in range(apc.shape[0]):
        alone = batch_allocate(
            scheme, apc[i], bandwidth[i], api=api[i],
            work_conserving=work_conserving,
        )[0]
        scalar = solver.allocate(
            _workload(apc[i], api[i]), float(bandwidth[i]),
            work_conserving=work_conserving,
        )
        floats = row_allocate(
            scheme, apc[i].tolist(), float(bandwidth[i]), api=api[i].tolist(),
            work_conserving=work_conserving,
        )
        assert np.array_equal(stacked[i], alone), f"row {i} depends on its stack"
        assert np.array_equal(stacked[i], scalar), f"row {i} differs from scalar"
        assert stacked[i].tolist() == floats, f"row {i} differs from row_allocate"


@given(stacks(), st.sampled_from(BATCH_SCHEMES), st.booleans())
@settings(max_examples=120, deadline=None)
def test_stacked_rows_conserve_bandwidth(stack, scheme, work_conserving):
    apc, api, bandwidth = stack
    stacked = batch_allocate(
        scheme, apc, bandwidth, api=api, work_conserving=work_conserving
    )
    assert (stacked >= 0).all()
    # a greedy fill never strands budget, whatever the flag says
    conserving = work_conserving or scheme.startswith("prio_")
    tol = CONSERVATION_ATOL + CONSERVATION_RTOL * max(1.0, float(bandwidth.max()))
    for i in range(apc.shape[0]):
        residual = conservation_residual(
            stacked[i], bandwidth[i], apc[i], work_conserving=conserving
        )
        assert residual <= tol, f"row {i} violates Eq. 2 by {residual:.3e}"


# ----------------------------------------------------------------------
# every public entry keeps rejecting malformed input
# ----------------------------------------------------------------------
A = np.array([[0.004, 0.007, 0.002], [0.003, 0.001, 0.009]])
P = np.array([[0.03, 0.04, 0.01], [0.02, 0.05, 0.03]])
B = np.array([0.006, 0.008])
BETA = A / A.sum(axis=1, keepdims=True)
ORDER = np.argsort(A, axis=1, kind="stable")
TARGETS = np.array([[0.05, np.nan, np.nan], [np.nan, 0.01, np.nan]])


def _with(matrix: np.ndarray, value: float, at=(1, 2)) -> np.ndarray:
    out = np.array(matrix, dtype=float)
    out[at] = value
    return out


NAN_A = _with(A, np.nan)
NAN_B = np.array([0.006, np.nan])
ZERO_B = np.array([0.006, 0.0])
NEG_B = np.array([0.006, -0.001])
SHORT_B = np.array([0.006])
WIDE = np.hstack([A, A[:, :1]])

_cases: list = []


def _rejects(name: str, call) -> None:
    _cases.append(pytest.param(call, id=name))


for _scheme in BATCH_SCHEMES:
    _rejects(f"allocate-{_scheme}-nan-demand",
             lambda s=_scheme: batch_allocate(s, NAN_A, B, api=P))
    _rejects(f"allocate-{_scheme}-zero-demand",
             lambda s=_scheme: batch_allocate(s, _with(A, 0.0), B, api=P))
    _rejects(f"allocate-{_scheme}-negative-demand",
             lambda s=_scheme: batch_allocate(s, _with(A, -1e-3), B, api=P))
    _rejects(f"allocate-{_scheme}-nan-budget",
             lambda s=_scheme: batch_allocate(s, A, NAN_B, api=P))
    _rejects(f"allocate-{_scheme}-zero-budget",
             lambda s=_scheme: batch_allocate(s, A, ZERO_B, api=P))
    _rejects(f"allocate-{_scheme}-negative-budget",
             lambda s=_scheme: batch_allocate(s, A, NEG_B, api=P))
    _rejects(f"allocate-{_scheme}-budget-shape",
             lambda s=_scheme: batch_allocate(s, A, SHORT_B, api=P))
_rejects("allocate-unknown-scheme", lambda: batch_allocate("nope", A, B))
_rejects("allocate-prio_api-no-api", lambda: batch_allocate("prio_api", A, B))
_rejects("allocate-prio_api-nan-api",
         lambda: batch_allocate("prio_api", A, B, api=_with(P, np.nan)))
_rejects("allocate-prio_api-api-shape",
         lambda: batch_allocate("prio_api", A, B, api=P[:, :2]))

for _scheme in BATCH_SCHEMES:
    _rejects(f"row-{_scheme}-nan-demand",
             lambda s=_scheme: row_allocate(s, NAN_A[1], 0.006, api=P[1]))
    _rejects(f"row-{_scheme}-zero-demand",
             lambda s=_scheme: row_allocate(s, _with(A, 0.0)[1], 0.006, api=P[1]))
    _rejects(f"row-{_scheme}-zero-budget",
             lambda s=_scheme: row_allocate(s, A[1], 0.0, api=P[1]))
    _rejects(f"row-{_scheme}-inf-budget",
             lambda s=_scheme: row_allocate(s, A[1], np.inf, api=P[1]))
_rejects("row-empty", lambda: row_allocate("sqrt", [], 0.006))
_rejects("row-unknown-scheme", lambda: row_allocate("nope", A[1], 0.006))
_rejects("row-prio_api-no-api", lambda: row_allocate("prio_api", A[1], 0.006))
_rejects("row-prio_api-nan-api",
         lambda: row_allocate("prio_api", A[1], 0.006, api=_with(P, np.nan)[1]))
_rejects("row-prio_api-api-shape",
         lambda: row_allocate("prio_api", A[1], 0.006, api=P[1, :2]))
_rejects("row-overflowing-weights", lambda: row_allocate("nopart", [1e300, 1e300], 1.0))
_rejects("row-underflowing-weights", lambda: row_allocate("nopart", [1e-300, 1e-300], 1.0))

for _alpha in (0.0, 0.5, 1.0):
    _rejects(f"power-{_alpha}-nan-demand",
             lambda a=_alpha: batch_power_allocation(NAN_A, B, a))
    _rejects(f"power-{_alpha}-zero-budget",
             lambda a=_alpha: batch_power_allocation(A, ZERO_B, a))
    _rejects(f"power-{_alpha}-budget-shape",
             lambda a=_alpha: batch_power_allocation(A, SHORT_B, a))
_rejects("power-nan-alpha", lambda: batch_power_allocation(A, B, float("nan")))
_rejects("power-all-zero-demand",
         lambda: batch_power_allocation(np.zeros_like(A), B, 0.5))
_rejects("power-negative-demand",
         lambda: batch_power_allocation(_with(A, -1e-3), B, 0.5))
_rejects("power-negative-weights",
         lambda: batch_power_allocation(_with(A, -1e-3), B, 1.0))
# the weights overflow to an infinite total: the derived shares are all
# zero, so the rows do not sum to 1
_rejects("power-overflowing-weights",
         lambda: batch_power_allocation(np.full((1, 2), 1e308), 1.0, 1.0))

_rejects("capped-nan-beta", lambda: batch_capped_allocation(_with(BETA, np.nan), B, A))
_rejects("capped-nan-demand", lambda: batch_capped_allocation(BETA, B, NAN_A))
_rejects("capped-zero-budget", lambda: batch_capped_allocation(BETA, ZERO_B, A))
_rejects("capped-nan-budget", lambda: batch_capped_allocation(BETA, NAN_B, A))
_rejects("capped-budget-shape", lambda: batch_capped_allocation(BETA, SHORT_B, A))
_rejects("capped-shape-mismatch", lambda: batch_capped_allocation(BETA, B, WIDE))
_rejects("capped-beta-sums-low", lambda: batch_capped_allocation(BETA * 0.9, B, A))
_rejects("capped-beta-sums-high",
         lambda: batch_capped_allocation(BETA * (1 + 1e-4), B, A))
_rejects("capped-beta-inf", lambda: batch_capped_allocation(_with(BETA, np.inf), B, A))

_rejects("greedy-nan-demand", lambda: batch_greedy_allocation(ORDER, B, NAN_A))
_rejects("greedy-zero-budget", lambda: batch_greedy_allocation(ORDER, ZERO_B, A))
_rejects("greedy-nan-budget", lambda: batch_greedy_allocation(ORDER, NAN_B, A))
_rejects("greedy-budget-shape", lambda: batch_greedy_allocation(ORDER, SHORT_B, A))
_rejects("greedy-order-shape", lambda: batch_greedy_allocation(ORDER[:, :2], B, A))
# row 0 spends its budget before its repeated index comes round again
_rejects("greedy-order-repeats",
         lambda: batch_greedy_allocation(np.array([[0, 1, 0], [0, 1, 2]]), B, A))
_rejects("greedy-order-out-of-range", lambda: batch_greedy_allocation(ORDER + 1, B, A))

_rejects("order-nan-apc", lambda: batch_priority_order("prio_apc", NAN_A, None))
_rejects("order-nan-api", lambda: batch_priority_order("prio_api", A, _with(P, np.nan)))
_rejects("order-no-api", lambda: batch_priority_order("prio_api", A, None))
_rejects("order-not-priority", lambda: batch_priority_order("sqrt", A, P))

_rejects("knapsack-nan-values", lambda: batch_solve_fractional_knapsack(NAN_A, A, B))
_rejects("knapsack-nan-capacity", lambda: batch_solve_fractional_knapsack(P, NAN_A, B))
_rejects("knapsack-negative-capacity",
         lambda: batch_solve_fractional_knapsack(P, _with(A, -1e-3), B))
_rejects("knapsack-negative-budget", lambda: batch_solve_fractional_knapsack(P, A, NEG_B))
_rejects("knapsack-nan-budget", lambda: batch_solve_fractional_knapsack(P, A, NAN_B))
_rejects("knapsack-budget-shape", lambda: batch_solve_fractional_knapsack(P, A, SHORT_B))
_rejects("knapsack-shape-mismatch", lambda: batch_solve_fractional_knapsack(P, WIDE, B))

_rejects("qos-nan-demand", lambda: batch_qos_plan(NAN_A, P, TARGETS, B))
_rejects("qos-zero-demand", lambda: batch_qos_plan(_with(A, 0.0), P, TARGETS, B))
_rejects("qos-zero-api", lambda: batch_qos_plan(A, _with(P, 0.0), TARGETS, B))
_rejects("qos-nan-budget", lambda: batch_qos_plan(A, P, TARGETS, NAN_B))
_rejects("qos-zero-budget", lambda: batch_qos_plan(A, P, TARGETS, ZERO_B))
_rejects("qos-budget-shape", lambda: batch_qos_plan(A, P, TARGETS, SHORT_B))
_rejects("qos-api-shape", lambda: batch_qos_plan(A, WIDE, TARGETS, B))
_rejects("qos-targets-shape", lambda: batch_qos_plan(A, P, TARGETS[:, :2], B))
_rejects("qos-negative-target", lambda: batch_qos_plan(A, P, _with(TARGETS, -0.1), B))
_rejects("qos-inf-target", lambda: batch_qos_plan(A, P, _with(TARGETS, np.inf), B))
_rejects("qos-no-targets", lambda: batch_qos_plan(A, P, np.full_like(A, np.nan), B))
_rejects("qos-unknown-objective",
         lambda: batch_qos_plan(A, P, TARGETS, B, objective="speed"))

for _closed in (batch_hsp_square_root, batch_wsp_square_root, batch_hsp_proportional):
    _name = _closed.__name__
    _rejects(f"{_name}-nan-demand", lambda f=_closed: f(NAN_A, B))
    _rejects(f"{_name}-zero-demand", lambda f=_closed: f(np.zeros_like(A), B))
    _rejects(f"{_name}-nan-budget", lambda f=_closed: f(A, NAN_B))
    _rejects(f"{_name}-budget-shape", lambda f=_closed: f(A, SHORT_B))


@pytest.mark.parametrize("call", _cases)
def test_public_entries_reject_malformed_input(call):
    with pytest.raises(ConfigurationError), np.errstate(all="ignore"):
        call()
