"""Benchmark + gate for the cross-experiment sweep planner.

Two gates (the PR's acceptance criteria), one JSON artifact:

1. **Dedup gate** -- compiling every registered exhibit into one plan
   must eliminate >= 30% of the naive per-experiment simulations.
   Compilation performs zero simulations, so this measures the *real*
   full-size plan, not a proxy.
2. **Makespan gate** -- executing a representative grid through the
   cost-aware DAG dispatcher (persistent pool, LPT dispatch) on 2
   workers must finish within ``MAKESPAN_BOUND`` x the lower bound that
   the same execution's own per-task worker times allow:
   ``max(sum of task seconds / workers, longest profile -> run chain)``.
   Host load stretches the tasks and the makespan alike, so the ratio
   measures the dispatcher, not the host; a dispatcher that lost its
   parallelism reads about 2.  The pool is warmed first by one untimed
   execution of the same grid (its production shape: one persistent
   pool across all exhibits, so each worker's first-use costs are paid
   once).

Writes ``BENCH_sweep.json`` (and ``sweep_plan.json``, the CI artifact)
into the working directory or ``$BENCH_OUT_DIR``.
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
MAKESPAN_BOUND = 1.5

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


def _longest_chain(plan, task_s: dict) -> float:
    """Seconds of the longest dependency chain (plan.tasks is
    topologically ordered: every profile precedes its runs)."""
    finish: dict[str, float] = {}
    for digest, task in plan.tasks.items():
        finish[digest] = task_s.get(digest, 0.0) + max(
            (finish[d] for d in task.deps), default=0.0
        )
    return max(finish.values(), default=0.0)


def gate_makespan() -> dict:
    from repro.experiments.dispatch import Dispatcher

    dispatcher = Dispatcher(max_workers=WORKERS)
    plan = grid_plan(BENCH_MIXES, BENCH_SCHEMES, BENCH_CONFIG)
    try:
        # warm the persistent pool (production amortizes this across
        # every exhibit of a sweep); each execution starts from its own
        # empty cache
        _fresh_cache("dag-warm")
        dispatcher.execute(plan)

        _fresh_cache("dag")
        t0 = time.perf_counter()
        _, stats = dispatcher.execute(plan)
        makespan = time.perf_counter() - t0
    finally:
        dispatcher.shutdown()
    busy = sum(stats.task_s.values())
    chain = _longest_chain(plan, stats.task_s)
    lower = max(busy / WORKERS, chain)
    ratio = makespan / lower if lower > 0 else float("inf")
    print(
        f"dag: {stats.n_tasks} tasks, {stats.n_steals} stolen; "
        f"makespan {makespan:.3f}s, task seconds {busy:.3f}s, "
        f"longest chain {chain:.3f}s -> {ratio:.2f}x the lower bound "
        f"(gate {MAKESPAN_BOUND:.2f}x)"
    )
    return {
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "n_tasks": stats.n_tasks,
        "makespan_s": makespan,
        "task_seconds": busy,
        "longest_chain_s": chain,
        "lower_bound_s": lower,
        "ratio": ratio,
        "bound": MAKESPAN_BOUND,
        "pass": ratio <= MAKESPAN_BOUND,
    }


def main() -> int:
    out_dir = pathlib.Path(os.environ.get("BENCH_OUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    dedup = gate_dedup(out_dir)
    makespan = gate_makespan()

    report = {"dedup": dedup, "makespan": makespan}
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
    if not makespan["pass"]:
        print(
            f"FAIL: makespan {makespan['makespan_s']:.3f}s exceeds "
            f"{MAKESPAN_BOUND} x the {makespan['lower_bound_s']:.3f}s lower bound"
        )
        ok = False
    print("bench-sweep: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
