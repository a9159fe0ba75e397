"""``repro-surrogate``: fit, evaluate and inspect surrogate artifacts.

Subcommands::

    repro-surrogate fit  [--preset smoke|full] [--out DIR] [--workers N]
                         [--min-r2 F] [--max-mape F] [--no-save] [--json]
    repro-surrogate eval [--preset smoke|full] [--path DIR]
                         [--workers N] [--json]
    repro-surrogate show [--path DIR] [--json]

``fit`` runs the training sweep through the experiment planner (every
simulation dedupes against the persistent SimCache, so a re-fit over
an already-swept design performs zero simulations), fits the
per-scheme surfaces, prints the cross-validated report card and -- if
every scheme passes the quality gate -- serializes the artifact.  A
below-gate fit prints its report and exits non-zero without writing
anything.

``eval`` re-scores a shipped artifact's *stored* coefficients against
the preset's sweep dataset (cached, so no new simulation when the
sweep already ran) and checks its digest against the preset, so CI can
verify an artifact without trusting its embedded report card.

``show`` prints an artifact's metadata: digest, schemes, report card,
serving defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.surrogate.fit import QualityThresholds, evaluate_fit
from repro.surrogate.space import SweepSettings, full_settings, smoke_settings
from repro.surrogate.sweep import (
    RunSample,
    collect_dataset,
    run_sweep,
    sweep_digest,
)
from repro.util.errors import ReproError

__all__ = ["main"]

_PRESETS = {"smoke": smoke_settings, "full": full_settings}


def _settings(name: str) -> SweepSettings:
    return _PRESETS[name]()


def _dataset(
    settings: SweepSettings, args: argparse.Namespace
) -> dict[str, list[RunSample]]:
    results = run_sweep(settings, workers=args.workers)
    return collect_dataset(results.values())


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.surrogate.artifact import model_from_report, save_model

    settings = _settings(args.preset)
    thresholds = QualityThresholds(min_r2=args.min_r2, max_mape=args.max_mape)
    from repro.surrogate.fit import fit_surface

    report = fit_surface(_dataset(settings, args), thresholds=thresholds)
    digest = sweep_digest(settings)
    out = {
        "preset": args.preset,
        "sweep_digest": digest,
        "report": report.to_json(),
    }
    if not args.json:
        print(report.summary())
    if not report.passing:
        if args.json:
            print(json.dumps(out, indent=2))
        else:
            print(
                f"FAIL: schemes below the quality gate: {report.failures()}; "
                "not serializing",
                file=sys.stderr,
            )
        return 1
    if not args.no_save:
        model = model_from_report(
            report, digest, settings={"preset": args.preset}
        )
        path = save_model(model, args.out)
        out["artifact"] = str(path)
        if not args.json:
            print(f"artifact: {path} (digest {digest[:12]}...)")
    if args.json:
        print(json.dumps(out, indent=2))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.surrogate.artifact import load_model

    settings = _settings(args.preset)
    expected = sweep_digest(settings)
    model = load_model(args.path, expected_digest=expected)
    dataset = _dataset(settings, args)
    gate = QualityThresholds()
    rows = []
    ok = True
    for scheme in model.schemes:
        fit = model.fits[scheme]
        runs = dataset.get(scheme, [])
        if not runs:
            rows.append({"scheme": scheme, "error": "no sweep runs"})
            ok = False
            continue
        r2, mape = evaluate_fit(fit, runs, rel_floor=gate.rel_floor)
        passed = r2 >= gate.min_r2 and mape <= gate.max_mape
        ok = ok and passed
        rows.append(
            {"scheme": scheme, "r2": r2, "mape": mape, "pass": passed}
        )
    if args.json:
        print(
            json.dumps(
                {
                    "preset": args.preset,
                    "sweep_digest": expected,
                    "passing": ok,
                    "schemes": rows,
                },
                indent=2,
            )
        )
    else:
        print(f"artifact digest {model.sweep_digest[:12]}... vs preset: match")
        for row in rows:
            if "error" in row:
                print(f"  FAIL {row['scheme']:10s} {row['error']}")
            else:
                flag = "ok " if row["pass"] else "FAIL"
                print(
                    f"  {flag} {row['scheme']:10s} "
                    f"r2={row['r2']:.5f} mape={row['mape'] * 100:.2f}%"
                )
    return 0 if ok else 1


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.surrogate.artifact import load_model

    model = load_model(args.path)
    if args.json:
        print(json.dumps(model.to_json(), indent=2))
        return 0
    print(f"sweep digest : {model.sweep_digest}")
    print(f"settings     : {model.settings}")
    print(f"defaults     : {model.defaults}")
    print(
        "thresholds   : "
        f"r2 >= {model.thresholds.min_r2}, "
        f"mape <= {model.thresholds.max_mape * 100:g}%"
    )
    print("schemes      :")
    for name in model.schemes:
        fit = model.fits[name]
        print(
            f"  {name:10s} r2={fit.r2:.5f} mape={fit.mape * 100:.2f}% "
            f"terms={len(fit.terms)} runs={fit.n_train}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-surrogate",
        description="fit / evaluate / inspect APC-response surrogate artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--preset",
            choices=sorted(_PRESETS),
            default="smoke",
            help="training sweep design (default: smoke)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="process-pool size for the sweep (default: auto)",
        )

    fit = sub.add_parser("fit", help="sweep, fit, gate and serialize")
    _sweep_args(fit)
    fit.add_argument(
        "--out", default=None, help="artifact directory (default: cache dir)"
    )
    fit.add_argument(
        "--min-r2", type=float, default=QualityThresholds().min_r2,
        help="per-scheme held-out R^2 gate",
    )
    fit.add_argument(
        "--max-mape", type=float, default=QualityThresholds().max_mape,
        help="per-scheme held-out MAPE gate (fraction, e.g. 0.05)",
    )
    fit.add_argument(
        "--no-save", action="store_true", help="report only, write nothing"
    )
    fit.add_argument("--json", action="store_true", help="machine-readable output")
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("eval", help="re-score an artifact against its sweep")
    _sweep_args(ev)
    ev.add_argument(
        "--path", default=None, help="artifact file or directory (default: cache dir)"
    )
    ev.add_argument("--json", action="store_true", help="machine-readable output")
    ev.set_defaults(func=_cmd_eval)

    show = sub.add_parser("show", help="print artifact metadata")
    show.add_argument(
        "--path", default=None, help="artifact file or directory (default: cache dir)"
    )
    show.add_argument("--json", action="store_true", help="machine-readable output")
    show.set_defaults(func=_cmd_show)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
