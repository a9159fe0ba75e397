"""CLI: regenerate any of the paper's tables/figures (and the extras).

Usage::

    python -m repro.experiments figure1|figure2|figure3|figure4
    python -m repro.experiments table3|table4
    python -m repro.experiments ablation      # model-vs-sim card + mechanism studies
    python -m repro.experiments extension     # PAR-BS/TCM vs the derived optima
    python -m repro.experiments sensitivity   # winners under perturbation
    python -m repro.experiments predicted     # model-only grid, no simulation
    python -m repro.experiments surrogate     # surrogate vs sim per-point error
    python -m repro.experiments controller    # closed-loop control vs phase oracle
    python -m repro.experiments scorecard     # 17-check PASS/FAIL gate
    python -m repro.experiments regression [--update]   # golden numbers
    python -m repro.experiments all           # every exhibit (no regression)

Flags: ``--quick`` shrinks the measurement windows ~4x (smoke runs; more
sampling noise); ``--export DIR`` writes tidy CSV/JSON artifacts;
``--plan`` compiles the requested exhibits into one deduplicated
simulation DAG and executes it on the shared worker pool before
assembling the outputs (``--plan-json PATH`` saves the compiled plan).
``--workers N`` (or ``REPRO_WORKERS``) sizes the shared dispatcher for
every subcommand; setting a worker count implies ``--plan``.  Every
exhibit of one invocation reads one results table, so no point is
simulated twice; without ``--plan`` the missing points run in this
process through the same task code.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.plan import default_config
from repro.experiments.runner import Runner

_EXHIBITS = (
    "figure1", "figure2", "figure3", "figure4", "table3", "table4",
    "ablation", "extension", "sensitivity", "scorecard", "predicted",
    "surrogate", "controller", "regression",
)


def _maybe_export(name: str, result, export_dir: str | None) -> str:
    """Write CSV/JSON artifacts for exhibits that have a flattener."""
    if export_dir is None:
        return ""
    from repro.experiments import export as ex

    flatteners = {
        "figure1": ex.figure1_records,
        "figure2": ex.figure2_records,
        "figure3": ex.figure3_records,
        "figure4": ex.figure4_records,
        "table3": ex.table3_records,
        "table4": ex.table4_records,
    }
    if name not in flatteners:
        return ""
    csv_path, json_path = ex.write_records(
        flatteners[name](result), export_dir, name
    )
    return f"\n[exported {csv_path} and {json_path}]"


def run_exhibit(
    name: str,
    quick: bool = False,
    export_dir: str | None = None,
    workers: int | None = None,
    results: dict | None = None,
) -> str:
    """Run one exhibit and return its rendered text.

    ``results`` is the invocation's results table (task digest ->
    result): every runner the exhibit builds reads it, so planned points
    and points an earlier exhibit simulated are not simulated again, and
    the points this exhibit simulates join it.
    """
    results = {} if results is None else results
    runner = Runner(default_config(quick), results)
    if name == "figure1":
        from repro.experiments import figure1

        result = figure1.run(runner)
        return figure1.render(result) + _maybe_export(name, result, export_dir)
    if name == "figure2":
        from repro.experiments import figure2

        result = figure2.run(runner)
        return figure2.render(result) + _maybe_export(name, result, export_dir)
    if name == "figure3":
        from repro.experiments import figure3

        result = figure3.run(runner)
        return figure3.render(result) + _maybe_export(name, result, export_dir)
    if name == "figure4":
        from repro.experiments import figure4

        result = figure4.run(lambda dram: Runner(default_config(quick, dram), results))
        return figure4.render(result) + _maybe_export(name, result, export_dir)
    if name == "table3":
        from repro.experiments import table3

        result = table3.run(runner)
        return table3.render(result) + _maybe_export(name, result, export_dir)
    if name == "table4":
        from repro.experiments import table4

        result = table4.run(runner)
        return table4.render(result) + _maybe_export(name, result, export_dir)
    if name == "ablation":
        from repro.experiments import ablation

        return ablation.render(ablation.run(runner))
    if name == "extension":
        from repro.experiments import extension

        return extension.render(extension.run(runner))
    if name == "sensitivity":
        from repro.experiments import sensitivity

        result = sensitivity.run(runner_factory=lambda cfg: Runner(cfg, results))
        return sensitivity.render(result)
    if name == "scorecard":
        from repro.experiments import scorecard

        return scorecard.render(scorecard.run(runner))
    if name == "predicted":
        from repro.experiments import predicted

        return predicted.render(predicted.run())
    if name == "surrogate":
        from repro.experiments import surrogate_exhibit

        # rides its own planner-compiled sweep (SimCache-deduped), not
        # the shared results table; the quick flag does not apply
        result = surrogate_exhibit.run(workers=workers)
        return surrogate_exhibit.render(result)
    if name == "controller":
        from repro.experiments import controller_exhibit

        # runs its own closed-loop sims (cheap: seconds); plan/workers
        # flags do not apply
        return controller_exhibit.render(controller_exhibit.run(quick=quick))
    raise SystemExit(f"unknown exhibit {name!r}; choose from {_EXHIBITS + ('all',)}")


def _execute_sweep(names, *, quick: bool, workers: int | None, plan_json) -> dict:
    """Compile + execute the deduplicated DAG for the named exhibits;
    returns its results table."""
    from repro.experiments.dispatch import execute_plan
    from repro.experiments.plan import PLANNABLE_EXHIBITS, compile_plan

    plannable = tuple(n for n in names if n in PLANNABLE_EXHIBITS)
    sweep = compile_plan(plannable, quick=quick)
    print(sweep.summary())
    if plan_json:
        sweep.write(plan_json)
        print(f"[plan written to {plan_json}]")
    t0 = time.time()
    results, stats = execute_plan(sweep, max_workers=workers)
    print(
        f"[plan executed: {stats.n_tasks} simulations "
        f"({stats.n_cache_hits} profile cache hits, {stats.n_steals} stolen, "
        f"{stats.utilization * 100:.0f}% worker utilization) "
        f"in {time.time() - t0:.1f}s on {stats.workers} workers]\n"
    )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-experiments", description=__doc__)
    parser.add_argument("exhibit", choices=_EXHIBITS + ("all",))
    parser.add_argument("--quick", action="store_true", help="small windows")
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write tidy CSV/JSON artifacts for the exhibit into DIR",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="compile the requested exhibits into one deduplicated "
        "simulation DAG and execute it on the shared worker pool first",
    )
    parser.add_argument(
        "--plan-json",
        metavar="PATH",
        default=None,
        help="write the compiled plan (tasks, deps, dedup stats) to PATH",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-pool size for --plan (default: REPRO_WORKERS, then all "
        "CPU cores); setting it implies --plan",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="regression: overwrite the golden baseline with fresh numbers",
    )
    args = parser.parse_args(argv)

    from repro.experiments.dispatch import resolve_workers

    workers = resolve_workers(args.workers)
    use_plan = args.plan or workers is not None

    if args.exhibit == "regression":
        from repro.experiments import regression

        results = (
            _execute_sweep(
                ("regression",),
                quick=args.quick,
                workers=workers,
                plan_json=args.plan_json,
            )
            if use_plan
            else {}
        )
        current = regression.collect(Runner(default_config(args.quick), results))
        if args.update:
            regression.save_baseline(current, regression.BASELINE_PATH)
            print(f"baseline updated: {regression.BASELINE_PATH} "
                  f"({len(current)} quantities)")
            return 0
        baseline = regression.load_baseline(regression.BASELINE_PATH)
        drifts = regression.compare(current, baseline)
        print(regression.render(drifts, n_tracked=len(baseline)))
        return 1 if drifts else 0

    # "all" excludes the regression gate (it compares against a baseline
    # rather than printing an exhibit, and has its own exit semantics)
    names = (
        tuple(n for n in _EXHIBITS if n != "regression")
        if args.exhibit == "all"
        else (args.exhibit,)
    )
    # one results table for the whole invocation
    results = (
        _execute_sweep(
            names, quick=args.quick, workers=workers, plan_json=args.plan_json
        )
        if use_plan
        else {}
    )
    for name in names:
        t0 = time.time()
        print(f"=== {name} ===")
        print(
            run_exhibit(
                name,
                quick=args.quick,
                export_dir=args.export,
                workers=workers,
                results=results,
            )
        )
        elapsed = time.time() - t0
        if args.export is not None:
            # provenance beside the artifacts: config digest, git rev,
            # interpreter versions, and where the wall-clock went
            from repro.obs import RunManifest

            manifest = RunManifest.create(
                name, default_config(args.quick), {"quick": args.quick}
            )
            manifest.add_timing(name, elapsed)
            print(f"[manifest {manifest.write(args.export)}]")
        print(f"[{name} took {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
