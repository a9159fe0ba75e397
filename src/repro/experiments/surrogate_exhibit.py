"""Predicted-vs-simulated exhibit for the APC-response surrogate.

The surrogate's promise is that the fitted surface answers at
closed-form cost what the cycle-level simulator answers in
milliseconds.  This exhibit quantifies the *per-point* cost of that
substitution: it fits the surface on the smoke sweep (every simulation
dedupes against the SimCache, so a re-run assembles from cache), then
compares each app's predicted shared-mode APC against the simulated
value across every sweep run, per scheme.

Starved points (simulated APC below ``rel_floor`` of the bus) are
excluded from the relative-error average exactly like the fit's MAPE:
both sides agree the app is starved, and a near-zero denominator turns
sampling noise into a meaningless ratio.  The gate is the serving
quality bar: mean per-point relative APC error <= 5% for every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.surrogate.fit import (
    DEFAULT_REL_FLOOR,
    compute_features,
    fit_surface,
    predict_norm,
)
from repro.surrogate.space import SweepSettings, smoke_settings
from repro.surrogate.sweep import collect_dataset, run_sweep, sweep_digest, sweep_points

__all__ = ["SchemeAgreement", "SurrogateExhibitResult", "points", "run", "render"]

#: per-scheme gate on the mean per-point relative APC error
MAX_MEAN_REL_ERROR = 0.05


@dataclass(frozen=True)
class SchemeAgreement:
    """Per-point prediction error of one scheme's surface."""

    scheme: str
    n_points: int
    n_scored: int  # points above the starvation floor
    mean_rel_err: float
    p95_rel_err: float
    max_rel_err: float

    @property
    def passes(self) -> bool:
        return self.mean_rel_err <= MAX_MEAN_REL_ERROR


@dataclass(frozen=True)
class SurrogateExhibitResult:
    """Every scheme's agreement plus the sweep identity."""

    agreements: dict[str, SchemeAgreement]
    sweep_digest: str
    rel_floor: float

    @property
    def passing(self) -> bool:
        return bool(self.agreements) and all(
            a.passes for a in self.agreements.values()
        )


def points(cfg_for):
    """The smoke sweep at ``cfg_for``'s windows.

    ``run`` executes the sweep at the surrogate's own windows
    (:func:`~repro.surrogate.sweep.surrogate_config`), so none of these
    planned points is one it reads; the pinned benchmark plan includes
    them, and dropping them changes its digest.
    """
    return sweep_points(smoke_settings(), cfg_for), 0


def run(
    settings: SweepSettings | None = None, *, workers: int | None = None
) -> SurrogateExhibitResult:
    """Fit on the sweep and score every point against its simulation."""
    settings = settings or smoke_settings()
    results = run_sweep(settings, workers=workers)
    dataset = collect_dataset(results.values())
    report = fit_surface(dataset)
    rel_floor = report.thresholds.rel_floor

    agreements: dict[str, SchemeAgreement] = {}
    for scheme in sorted(dataset):
        fit = report.fits[scheme]
        sim_norm: list[np.ndarray] = []
        pred_norm_rows: list[np.ndarray] = []
        for sample in dataset[scheme]:
            feats = compute_features(
                scheme,
                sample.apc_alone[None, :],
                np.array([sample.peak_apc]),
                api=sample.api[None, :],
                row_locality=sample.row_locality[None, :],
                bank_frac=sample.bank_frac[None, :],
            )
            pred_norm_rows.append(
                predict_norm(fit.terms, np.asarray(fit.coef), feats).ravel()
            )
            sim_norm.append(sample.apc_shared / sample.peak_apc)
        y = np.concatenate(sim_norm)
        pred = np.concatenate(pred_norm_rows)
        keep = y >= rel_floor
        if keep.any():
            rel = np.abs(pred[keep] - y[keep]) / y[keep]
            stats = (
                float(np.mean(rel)),
                float(np.percentile(rel, 95)),
                float(np.max(rel)),
            )
        else:
            stats = (0.0, 0.0, 0.0)
        agreements[scheme] = SchemeAgreement(
            scheme=scheme,
            n_points=int(y.shape[0]),
            n_scored=int(keep.sum()),
            mean_rel_err=stats[0],
            p95_rel_err=stats[1],
            max_rel_err=stats[2],
        )
    return SurrogateExhibitResult(
        agreements=agreements,
        sweep_digest=sweep_digest(settings),
        rel_floor=rel_floor,
    )


def render(result: SurrogateExhibitResult) -> str:
    lines = [
        "surrogate predicted vs simulated (per-point relative APC error, "
        f"starved points below {result.rel_floor:g}*B excluded):",
    ]
    for scheme in sorted(result.agreements):
        a = result.agreements[scheme]
        flag = "ok " if a.passes else "FAIL"
        lines.append(
            f"  {flag} {scheme:10s} mean={a.mean_rel_err * 100:.2f}% "
            f"p95={a.p95_rel_err * 100:.2f}% max={a.max_rel_err * 100:.2f}% "
            f"({a.n_scored}/{a.n_points} points scored)"
        )
    lines.append(
        f"gate: mean per-point error <= {MAX_MEAN_REL_ERROR * 100:g}% per "
        f"scheme -> {'PASS' if result.passing else 'FAIL'} "
        f"(sweep {result.sweep_digest[:12]}...)"
    )
    return "\n".join(lines)
