"""Micro-benchmarks of the hot paths (proper multi-round timings).

Unlike the exhibit benches (single-shot end-to-end regenerations), these
time the kernels that dominate experiment wall-time: the event-driven
engine, the analytical model's allocation paths, and the numerical
optimizer -- useful for tracking performance regressions.
"""

import numpy as np

from repro.core import (
    AnalyticalModel,
    HarmonicWeightedSpeedup,
    SquareRootPartitioning,
    optimize_partition,
)
from repro.sim import FCFSScheduler, SimConfig, StartTimeFairScheduler, simulate
from repro.sim.cpu import CoreSpec
from repro.workloads.mixes import mix_core_specs, mix_paper_workload

_SHORT = SimConfig(warmup_cycles=10_000.0, measure_cycles=100_000.0, seed=7)


def test_bench_engine_fcfs_4core(benchmark):
    """100k-cycle 4-core FCFS simulation throughput."""
    specs = mix_core_specs("hetero-5")
    result = benchmark(lambda: simulate(specs, lambda n: FCFSScheduler(n), _SHORT))
    assert result.total_apc > 0


def test_bench_engine_stf_16core(benchmark):
    """100k-cycle 16-core start-time-fair simulation (fig-4 scale)."""
    specs = mix_core_specs("hetero-5", copies=4)
    beta = np.full(16, 1.0 / 16)
    result = benchmark(
        lambda: simulate(specs, lambda n: StartTimeFairScheduler(n, beta), _SHORT)
    )
    assert result.total_apc > 0


def test_bench_engine_saturated(benchmark):
    """Saturated channel (4 heavy streams): worst-case event density."""
    spec = CoreSpec(name="h", api=0.05, ipc_peak=0.5, mlp=24, write_fraction=0.1)
    specs = [spec] * 4
    result = benchmark(lambda: simulate(specs, lambda n: FCFSScheduler(n), _SHORT))
    assert result.bus_utilization > 0.9


def test_bench_model_allocation(benchmark):
    """Analytical operating point for one scheme (the what-if kernel)."""
    wl = mix_paper_workload("hetero-5")
    model = AnalyticalModel(wl, 0.01)
    scheme = SquareRootPartitioning()
    op = benchmark(lambda: model.operating_point(scheme))
    assert op.apc_shared.sum() > 0


def test_bench_model_compare_all(benchmark):
    """Full scheme-x-metric scoreboard (the consolidation-example path)."""
    from repro.core import default_schemes

    wl = mix_paper_workload("hetero-5")
    model = AnalyticalModel(wl, 0.01)
    schemes = default_schemes()
    table = benchmark(lambda: model.compare(schemes))
    assert len(table) == 6


def test_bench_numerical_optimizer(benchmark):
    """SLSQP partition optimization for a smooth metric."""
    wl = mix_paper_workload("hetero-5")
    result = benchmark.pedantic(
        lambda: optimize_partition(wl, 0.01, HarmonicWeightedSpeedup()),
        rounds=3,
        iterations=1,
    )
    assert result.objective > 0


def test_bench_cache_hierarchy(benchmark):
    """Functional L1/L2 filtering rate (refs/sec through the hierarchy)."""
    from repro.sim.cache import CacheHierarchy

    def run():
        h = CacheHierarchy()
        for addr in range(20_000):
            h.access(addr % 4096, addr % 7 == 0)
        return h

    h = benchmark(run)
    assert h.references == 20_000


def test_bench_knapsack(benchmark):
    """Greedy fractional-knapsack solve at fig-4 scale (16 apps)."""
    import numpy as np

    from repro.core import solve_fractional_knapsack

    rng = np.random.default_rng(3)
    v = rng.uniform(0.1, 5.0, 16)
    cap = rng.uniform(0.0005, 0.009, 16)
    sol = benchmark(lambda: solve_fractional_knapsack(v, cap, 0.04))
    assert sol.used_capacity > 0


def test_bench_frontier_sweep(benchmark):
    """31-point power-family sweep with all four metrics."""
    from repro.core import power_family_frontier
    from repro.workloads.mixes import mix_paper_workload

    wl = mix_paper_workload("hetero-5")
    points = benchmark(lambda: power_family_frontier(wl, 0.01))
    assert len(points) == 31

