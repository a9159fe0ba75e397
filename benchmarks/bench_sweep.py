"""Benchmark + gate for the cross-experiment sweep planner.

Two gates (the PR's acceptance criteria), one JSON artifact:

1. **Dedup gate** -- compiling every registered exhibit into one plan
   must eliminate >= 30% of the naive per-experiment simulations.
   Compilation performs zero simulations, so this measures the *real*
   full-size plan, not a proxy.
2. **Wall-clock gate** -- executing a representative grid through the
   cost-aware DAG dispatcher (persistent pool, LPT dispatch,
   shared-memory transport) on 2 workers must be no slower than the
   serial :class:`~repro.experiments.runner.Runner` on the same
   cold-cache workload.  The DAG pool is warmed once first (its
   production shape: one persistent pool across all exhibits).

Writes ``BENCH_sweep.json`` (and ``sweep_plan.json``, the CI artifact)
into the working directory or ``$BENCH_OUT_DIR``.

Environment: ``BENCH_SWEEP_TOLERANCE`` (default 1.25) loosens the
wall-clock gate for noisy shared CI boxes; with 2 free cores the
recorded ``speedup`` over serial is expected to be near 2.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.experiments.plan import PLANNABLE_EXHIBITS, compile_plan, grid_plan  # noqa: E402
from repro.sim.engine import SimConfig  # noqa: E402

DEDUP_FLOOR = 0.30
WORKERS = 2

#: small windows: enough simulations to dominate dispatch overhead,
#: short enough for CI (the grid below is ~26 simulations)
BENCH_CONFIG = SimConfig(
    warmup_cycles=10_000.0, measure_cycles=60_000.0, seed=11
)
BENCH_MIXES = ("hetero-1", "hetero-2", "hetero-5", "homo-1")
BENCH_SCHEMES = ("nopart", "equal", "sqrt", "prop", "prio_apc")


def _fresh_cache(tag: str) -> str:
    d = tempfile.mkdtemp(prefix=f"bench-sweep-{tag}-")
    os.environ["REPRO_CACHE_DIR"] = d
    return d


def gate_dedup(out_dir: pathlib.Path) -> dict:
    plan = compile_plan(PLANNABLE_EXHIBITS, quick=True)
    plan.write(out_dir / "sweep_plan.json")
    print(plan.summary())
    return {
        "n_demanded": plan.n_demanded,
        "n_unique": plan.n_unique,
        "dedup_ratio": plan.dedup_ratio,
        "counts_by_kind": plan.counts_by_kind(),
        "pass": plan.dedup_ratio >= DEDUP_FLOOR,
    }


def _time_serial() -> float:
    from repro.experiments.runner import Runner

    _fresh_cache("serial")
    runner = Runner(BENCH_CONFIG)
    t0 = time.perf_counter()
    runner.run_grid(BENCH_MIXES, BENCH_SCHEMES)
    return time.perf_counter() - t0


def _time_dag() -> float:
    from repro.experiments.dispatch import Dispatcher

    dispatcher = Dispatcher(max_workers=WORKERS)
    try:
        # warm the persistent pool (production amortizes this across
        # every exhibit of a sweep); the cache stays cold for the
        # timed run
        _fresh_cache("dag-warm")
        dispatcher.execute(grid_plan(("homo-1",), ("nopart",), BENCH_CONFIG))

        _fresh_cache("dag")
        plan = grid_plan(BENCH_MIXES, BENCH_SCHEMES, BENCH_CONFIG)
        t0 = time.perf_counter()
        _, stats = dispatcher.execute(plan)
        wall = time.perf_counter() - t0
        print(
            f"dag: {stats.n_tasks} tasks, {stats.n_steals} stolen, "
            f"{stats.utilization * 100:.0f}% utilization, "
            f"{stats.n_shm_segments} shm segments"
        )
        return wall
    finally:
        dispatcher.shutdown()


def gate_wallclock() -> dict:
    tolerance = float(os.environ.get("BENCH_SWEEP_TOLERANCE", "1.25"))
    serial_wall = _time_serial()
    dag_wall = _time_dag()
    speedup = serial_wall / dag_wall if dag_wall > 0 else float("inf")
    print(
        f"serial(Runner):      {serial_wall:.2f}s   "
        f"dag(LPT + stealing): {dag_wall:.2f}s   "
        f"speedup: {speedup:.2f}x (tolerance {tolerance:.2f})"
    )
    return {
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": serial_wall,
        "dag_wall_s": dag_wall,
        "speedup": speedup,
        "tolerance": tolerance,
        "pass": dag_wall <= serial_wall * tolerance,
    }


def main() -> int:
    out_dir = pathlib.Path(os.environ.get("BENCH_OUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    dedup = gate_dedup(out_dir)
    wall = gate_wallclock()

    report = {"dedup": dedup, "wallclock": wall}
    report_path = out_dir / "BENCH_sweep.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {report_path} and {out_dir / 'sweep_plan.json'}")

    ok = True
    if not dedup["pass"]:
        print(
            f"FAIL: dedup ratio {dedup['dedup_ratio']:.1%} "
            f"below the {DEDUP_FLOOR:.0%} floor"
        )
        ok = False
    if not wall["pass"]:
        print(
            f"FAIL: dag wall {wall['dag_wall_s']:.2f}s exceeds "
            f"serial wall {wall['serial_wall_s']:.2f}s x {wall['tolerance']}"
        )
        ok = False
    print("bench-sweep: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
