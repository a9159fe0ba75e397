"""The service's core guarantee: micro-batched solves are bit-identical
to single-request solves.

Every batch kernel in :mod:`repro.core.batch` performs, per row, the
same floating-point op sequence as the scalar solver it replaces, so
these tests assert *exact* equality (``np.array_equal``), not
``allclose`` -- any reassociation of the arithmetic is a regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AppProfile, Workload, scheme_by_name, solve_fractional_knapsack
from repro.core.batch import (
    BATCH_SCHEMES,
    batch_allocate,
    batch_qos_plan,
    batch_solve_fractional_knapsack,
)
from repro.core.metrics import metric_by_name
from repro.core.qos import QoSPartitioner, QoSTarget
from repro.util.errors import ConfigurationError


def random_problem(rng, k, n):
    return (
        rng.uniform(1e-4, 0.02, size=(k, n)),  # apc_alone
        rng.uniform(1e-3, 0.08, size=(k, n)),  # api
        rng.uniform(1e-3, 0.05, size=k),  # bandwidth
    )


def workload_of_row(apc_alone_row, api_row):
    return Workload.of(
        "row",
        [
            AppProfile(f"a{j}", api=api_row[j], apc_alone=apc_alone_row[j])
            for j in range(len(apc_alone_row))
        ],
    )


@pytest.mark.parametrize("scheme", BATCH_SCHEMES)
@pytest.mark.parametrize("k,n", [(1, 4), (7, 3), (64, 16)])
def test_batch_allocation_bit_identical_to_scalar(scheme, k, n):
    apc, api, bandwidth = random_problem(np.random.default_rng(k * 100 + n), k, n)
    stacked = batch_allocate(scheme, apc, bandwidth, api=api)
    solver = scheme_by_name(scheme)
    for i in range(k):
        alone = solver.allocate(workload_of_row(apc[i], api[i]), float(bandwidth[i]))
        assert np.array_equal(stacked[i], alone), f"row {i} diverged"


@pytest.mark.parametrize("scheme", ["prio_apc", "prio_api", "sqrt", "prop"])
def test_batch_allocation_identical_under_priority_ties(scheme):
    """All-equal APC_alone (and API) -- ties must break identically."""
    rng = np.random.default_rng(5)
    k, n = 16, 6
    apc = np.tile(rng.uniform(1e-3, 0.01, size=(k, 1)), (1, n))
    api = np.tile(rng.uniform(1e-2, 0.05, size=(k, 1)), (1, n))
    bandwidth = rng.uniform(1e-3, 0.03, size=k)
    stacked = batch_allocate(scheme, apc, bandwidth, api=api)
    solver = scheme_by_name(scheme)
    for i in range(k):
        alone = solver.allocate(workload_of_row(apc[i], api[i]), float(bandwidth[i]))
        assert np.array_equal(stacked[i], alone)


def test_batch_knapsack_bit_identical_quantities():
    rng = np.random.default_rng(9)
    k, n = 40, 8
    values = rng.uniform(0.1, 10.0, size=(k, n))
    caps = rng.uniform(0.0, 0.02, size=(k, n))
    budgets = rng.uniform(0.0, 0.1, size=k)
    sol = batch_solve_fractional_knapsack(values, caps, budgets)
    for i in range(k):
        ref = solve_fractional_knapsack(values[i], caps[i], float(budgets[i]))
        assert np.array_equal(sol.quantities[i], ref.quantities)
        assert np.array_equal(sol.fill_order[i], ref.fill_order)
        assert sol.split_item[i] == ref.split_item
        assert sol.objective[i] == pytest.approx(ref.objective, rel=1e-12)


def test_batch_metric_values_match_scalar_path():
    """End-to-end: metrics computed on batch rows equal the scalar ones."""
    rng = np.random.default_rng(13)
    k, n = 12, 4
    apc, api, bandwidth = random_problem(rng, k, n)
    for scheme in ("sqrt", "prio_apc"):
        stacked = batch_allocate(scheme, apc, bandwidth, api=api)
        solver = scheme_by_name(scheme)
        for i in range(k):
            workload = workload_of_row(apc[i], api[i])
            alone = solver.allocate(workload, float(bandwidth[i]))
            for name in ("hsp", "wsp", "ipcsum", "minf"):
                metric = metric_by_name(name)
                assert metric(stacked[i] / api[i], workload.ipc_alone) == metric(
                    alone / api[i], workload.ipc_alone
                )


@pytest.mark.parametrize("objective", ["hsp", "minf", "wsp", "ipcsum"])
def test_batch_qos_matches_scalar_partitioner(objective):
    """QoS rows agree with QoSPartitioner to ~ulp (see batch.py docstring)."""
    rng = np.random.default_rng(17)
    k, n = 10, 5
    apc, api, bandwidth = random_problem(rng, k, n)
    bandwidth = bandwidth + 0.01  # leave room for reservations
    targets_matrix = np.full((k, n), np.nan)
    for i in range(k):
        picked = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        # keep total reservations under half the bandwidth so every row
        # stays feasible: B_QoS,j = ipc_target * api <= share
        share = 0.5 * bandwidth[i] / len(picked)
        for j in picked:
            ipc_cap = 0.9 * apc[i, j] / api[i, j]
            targets_matrix[i, j] = min(ipc_cap, share / api[i, j])
    plan = batch_qos_plan(apc, api, targets_matrix, bandwidth, objective=objective)
    from repro.core.metrics import (
        HarmonicWeightedSpeedup,
        MinFairness,
        SumOfIPCs,
        WeightedSpeedup,
    )

    metric = {
        "hsp": HarmonicWeightedSpeedup,
        "minf": MinFairness,
        "wsp": WeightedSpeedup,
        "ipcsum": SumOfIPCs,
    }[objective]()
    for i in range(k):
        workload = workload_of_row(apc[i], api[i])
        targets = [
            QoSTarget(f"a{j}", targets_matrix[i, j])
            for j in range(n)
            if not np.isnan(targets_matrix[i, j])
        ]
        ref = QoSPartitioner(metric).plan(workload, float(bandwidth[i]), targets)
        assert plan["feasible"][i]
        np.testing.assert_allclose(
            plan["apc_shared"][i], ref.apc_shared, rtol=1e-10, atol=1e-14
        )
        assert plan["b_qos"][i] == pytest.approx(ref.b_qos, rel=1e-12)


def test_batch_qos_flags_infeasible_rows_without_poisoning_batch():
    apc = np.array([[0.004, 0.002], [0.004, 0.002]])
    api = np.array([[0.04, 0.02], [0.04, 0.02]])
    # row 0 feasible; row 1 demands more than its standalone IPC
    targets = np.array([[0.05, np.nan], [1.0, np.nan]])
    plan = batch_qos_plan(apc, api, targets, 0.005)
    assert plan["feasible"].tolist() == [True, False]
    assert np.all(plan["apc_shared"][1] == 0.0)
    assert plan["apc_shared"][0][0] == pytest.approx(0.05 * 0.04)


def test_batch_allocate_rejects_unknown_scheme_and_bad_shapes():
    with pytest.raises(ConfigurationError):
        batch_allocate("nope", np.ones((2, 2)), 1.0)
    with pytest.raises(ConfigurationError):
        batch_allocate("sqrt", np.ones((2, 2)), np.ones(3))
    with pytest.raises(ConfigurationError):
        batch_allocate("sqrt", np.full((2, 2), np.nan), 1.0)
    with pytest.raises(ConfigurationError):
        batch_allocate("prio_api", np.ones((2, 2)), 1.0)  # api missing
