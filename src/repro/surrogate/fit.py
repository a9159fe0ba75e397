"""Per-scheme APC-response surface fitting.

The surrogate predicts the *simulator-measured* shared-mode APC of
each application under a scheme's enforcement -- including the
scheduler/DRAM effects (bank conflicts, refresh, write drains,
queue-depth coupling) the pure Eq. 2 closed form does not see -- at
closed-form cost.

Everything is dimensionless: with ``B`` the peak APC of the swept DRAM
(or the request's ``bandwidth`` at serve time),

* ``x  = APC_alone / B``   -- normalized standalone demand,
* ``g  = allocation / B``  -- the scheme's closed-form grant
  (:func:`repro.surrogate.grants.normalized_grants`, a lean
  serve-path twin of :func:`repro.core.batch.batch_allocate`), which
  encodes the whole share/priority structure of the scheme,
* ``load = sum_j x_j``     -- total demanded load of the co-runners,
* ``rho`` / ``sigma``      -- row locality / bank-spread fraction,
* ``rank``                 -- normalized priority position (priority
  schemes only; constant 0.5 elsewhere),

and the target is ``y = APC_shared / B``.  The basis is
domain-motivated: the roofline min-form ``min(x, g)`` is the ideal
response (an app gets its demand or its grant, whichever binds),
``min(x, g) * load`` and ``g * max(load - 1, 0)`` bend it under
contention, and ``x / (1 + load)`` is the 1/beta-style saturation term
describing FCFS-like residual sharing of slack bandwidth.  Fitting
``y`` with ``min(x, g)`` in the basis is equivalent to fitting the
*residual* over the ideal closed form, which is why a linear model is
enough.  The ``marg`` bump ``4*(g/x)*(1-g/x)`` localizes the
enforcement slop on the app whose grant partially fills its demand --
the one the scheduler throttles mid-stream, where the simulator
deviates most from the fluid closed form (interacted with ``sigma``
because bank spread sets how abruptly throttling bites).
Priority schemes additionally interact the basis with the
app's position in the grant order (``rank``): under ``prio_apc`` /
``prio_api`` the simulator leaks a little bandwidth past the strict
greedy fill to nominally-starved apps, and the leak is a function of
where the app sits in the order, not of its share.

The solve is *weighted* least squares with weights
``(1 / max(y, rel_floor)) ** 0.5`` -- a compromise between absolute
fit (drives R^2 on the large, latency-critical allocations) and
relative fit (drives MAPE on small ones) -- via ``numpy.linalg.lstsq``;
rank deficiency or an ill-conditioned design (collinear columns on a
degenerate sweep) falls back to ridge.  Quality is cross-validated
over *runs* (not samples -- co-runners of one simulation share their
group's load, so a per-sample split would leak): K-fold over runs,
every run scored exactly once while held out, then the shipped
coefficients are refit on all runs.  The report card is gated before
serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.surrogate.grants import PRIORITY_SCHEMES, normalized_grants
from repro.surrogate.sweep import RunSample
from repro.util.errors import ConfigurationError

__all__ = [
    "DEFAULT_TERMS",
    "PRIORITY_TERMS",
    "PRIORITY_SCHEMES",
    "QualityThresholds",
    "Features",
    "SchemeFit",
    "FitReport",
    "compute_features",
    "design_matrix",
    "predict_norm",
    "terms_for_scheme",
    "fit_scheme",
    "fit_surface",
    "evaluate_fit",
    "score_predictions",
]

#: Starvation floor, as a fraction of ``B``: samples whose simulated
#: APC falls below 5% of the bus are excluded from the MAPE average
#: (they still count toward R^2 and the fit itself).  This mirrors the
#: predicted-vs-simulated exhibit (:mod:`repro.experiments.predicted`),
#: which drops sub-0.05 starvation cells from its error average --
#: both sides agree the app is starved, but a near-zero denominator
#: turns sampling noise into a meaningless ratio.
DEFAULT_REL_FLOOR = 0.05

#: weighted-LS exponent: weights are ``(1/max(y, floor)) ** _WEIGHT_EXP``
_WEIGHT_EXP = 0.5

#: condition number beyond which plain least squares hands over to ridge
_COND_LIMIT = 1e10


@dataclass(frozen=True)
class QualityThresholds:
    """Serialization gate: a fit below these numbers refuses to ship."""

    min_r2: float = 0.98
    max_mape: float = 0.05
    rel_floor: float = DEFAULT_REL_FLOOR

    def as_dict(self) -> dict[str, float]:
        return {
            "min_r2": self.min_r2,
            "max_mape": self.max_mape,
            "rel_floor": self.rel_floor,
        }


@dataclass(frozen=True)
class Features:
    """Dimensionless per-app features of a batch of runs, shape (k, n)."""

    x: np.ndarray
    g: np.ndarray
    load: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    rank: np.ndarray


@dataclass(frozen=True)
class _Shared:
    """Subexpressions shared by several basis terms, computed once per
    design-matrix build (the serve path pays every ufunc dispatch)."""

    min_xg: np.ndarray
    x_sat: np.ndarray
    marg: np.ndarray


def _shared(f: Features) -> _Shared:
    # marginal-grant bump 4*(g/x)(1-g/x): 1 at a half-filled grant, 0
    # when the grant is all-or-nothing (and for zero-demand apps)
    gfrac = np.where(f.x > 0, f.g / np.maximum(f.x, 1e-12), 1.0)
    return _Shared(
        min_xg=np.minimum(f.x, f.g),
        x_sat=f.x / (1.0 + f.load),
        marg=4.0 * gfrac * (1.0 - gfrac),
    )


_BASIS: dict[str, Callable[[Features, _Shared], np.ndarray]] = {
    "one": lambda f, s: np.ones_like(f.x),
    "x": lambda f, s: f.x,
    "g": lambda f, s: f.g,
    "min_xg": lambda f, s: s.min_xg,
    "min_xg_load": lambda f, s: s.min_xg * f.load,
    "g_excess": lambda f, s: f.g * np.maximum(f.load - 1.0, 0.0),
    "x_sat": lambda f, s: s.x_sat,
    "min_xg_rho": lambda f, s: s.min_xg * f.rho,
    "min_xg_sigma": lambda f, s: s.min_xg * f.sigma,
    # the marginal-grant bump localizes enforcement slop on the app
    # whose grant partially fills its demand -- the one the scheduler
    # throttles mid-stream, where slop concentrates
    "marg": lambda f, s: s.marg,
    "marg_sigma": lambda f, s: s.marg * f.sigma,
    # rank interactions (priority schemes; degenerate constants elsewhere)
    "rank": lambda f, s: f.rank,
    "min_xg_rank": lambda f, s: s.min_xg * f.rank,
    "x_sat_rank": lambda f, s: s.x_sat * f.rank,
    "g_rank": lambda f, s: f.g * f.rank,
    "rank_load": lambda f, s: f.rank * f.load,
    "min_xg_rank_load": lambda f, s: s.min_xg * f.rank * f.load,
}

#: share-based default basis, in artifact order
DEFAULT_TERMS: tuple[str, ...] = tuple(_BASIS)[:11]

#: priority-scheme basis: the shared terms plus the rank interactions
PRIORITY_TERMS: tuple[str, ...] = tuple(_BASIS)


def terms_for_scheme(scheme: str) -> tuple[str, ...]:
    """Default basis for ``scheme``: rank terms only help (and are only
    non-degenerate) where the grant is a priority fill."""
    return PRIORITY_TERMS if scheme in PRIORITY_SCHEMES else DEFAULT_TERMS


def compute_features(
    scheme: str,
    apc_alone: np.ndarray,
    bandwidth: np.ndarray,
    *,
    api: np.ndarray | None = None,
    row_locality: np.ndarray | float | None = None,
    bank_frac: np.ndarray | float | None = None,
    work_conserving: bool = True,
) -> Features:
    """Features for ``k`` requests of ``n`` apps each.

    ``row_locality`` / ``bank_frac`` default to neutral values (scalar
    broadcast is fine); serving substitutes the training means stored
    in the artifact.  ``api`` is required for the schemes whose grant
    order depends on it (``prio_api``), same as ``batch_allocate``.

    The grant comes from the lean normalized kernel
    (:func:`repro.surrogate.grants.normalized_grants`); both fitting
    and serving route through here, so the surface is always scored on
    exactly the features it is served with.
    """
    apc = np.asarray(apc_alone, dtype=float)
    if apc.ndim != 2:
        raise ConfigurationError(
            f"apc_alone must be (k, n), got shape {apc.shape}"
        )
    band = np.asarray(bandwidth, dtype=float).reshape(-1)
    if band.shape[0] != apc.shape[0]:
        raise ConfigurationError(
            f"bandwidth has {band.shape[0]} rows for {apc.shape[0]} requests"
        )
    api_arr = None if api is None else np.asarray(api, dtype=float)
    grants = normalized_grants(
        scheme, apc, band, api=api_arr, work_conserving=work_conserving
    )
    x = grants.x

    def _filled(value: np.ndarray | float) -> np.ndarray:
        # a (k, n) copy: at serving sizes np.broadcast_to's read-only
        # view costs more per call than filling the array does
        out = np.empty_like(x)
        out[...] = value
        return out

    return Features(
        x=x,
        g=grants.g,
        load=_filled(x.sum(axis=1, keepdims=True)),
        rho=_filled(0.5 if row_locality is None else row_locality),
        sigma=_filled(1.0 if bank_frac is None else bank_frac),
        rank=grants.rank,
    )


def design_matrix(
    terms: Sequence[str], features: Features
) -> np.ndarray:
    """Flattened (k*n, n_terms) design matrix over the basis registry."""
    unknown = [t for t in terms if t not in _BASIS]
    if unknown:
        raise ConfigurationError(
            f"unknown basis terms {unknown!r}; available: {sorted(_BASIS)}"
        )
    shared = _shared(features)
    out = np.empty((features.x.size, len(terms)))
    for j, name in enumerate(terms):
        out[:, j] = _BASIS[name](features, shared).ravel()
    return out


def predict_norm(
    terms: Sequence[str], coef: np.ndarray, features: Features
) -> np.ndarray:
    """Predicted ``APC_shared / B``, shape (k, n).

    Clipped to the physical envelope ``[0, x]``: an app cannot exceed
    its standalone demand (nor go negative), whatever the polynomial
    tail does outside the training hull.
    """
    a = design_matrix(terms, features)
    y = (a @ np.asarray(coef, dtype=float)).reshape(features.x.shape)
    return y.clip(0.0, features.x)


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemeFit:
    """One scheme's fitted surface plus its cross-validated report card."""

    scheme: str
    terms: tuple[str, ...]
    coef: tuple[float, ...]
    r2: float
    mape: float
    n_train: int
    n_test: int
    ridge: bool

    def passes(self, thresholds: QualityThresholds) -> bool:
        return self.r2 >= thresholds.min_r2 and self.mape <= thresholds.max_mape

    def as_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "terms": list(self.terms),
            "coef": list(self.coef),
            "r2": self.r2,
            "mape": self.mape,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "ridge": self.ridge,
        }


@dataclass(frozen=True)
class FitReport:
    """Every scheme's fit + the dataset-level serving defaults."""

    fits: dict[str, SchemeFit]
    thresholds: QualityThresholds
    defaults: dict[str, float]

    def failures(self) -> list[str]:
        return sorted(
            name
            for name, fit in self.fits.items()
            if not fit.passes(self.thresholds)
        )

    @property
    def passing(self) -> bool:
        return bool(self.fits) and not self.failures()

    def summary(self) -> str:
        lines = ["surrogate fit (cross-validated quality per scheme):"]
        for name in sorted(self.fits):
            f = self.fits[name]
            flag = "ok " if f.passes(self.thresholds) else "FAIL"
            lines.append(
                f"  {flag} {name:10s} r2={f.r2:.5f} mape={f.mape * 100:.2f}% "
                f"runs={f.n_train} held-out samples={f.n_test}"
                f"{' (ridge)' if f.ridge else ''}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "thresholds": self.thresholds.as_dict(),
            "defaults": dict(self.defaults),
            "passing": self.passing,
            "failures": self.failures(),
            "schemes": {k: v.as_dict() for k, v in self.fits.items()},
        }


def _features_for_run(
    run: RunSample, *, work_conserving: bool = True
) -> Features:
    return compute_features(
        run.scheme,
        run.apc_alone[None, :],
        np.array([run.peak_apc]),
        api=run.api[None, :],
        row_locality=run.row_locality[None, :],
        bank_frac=run.bank_frac[None, :],
        work_conserving=work_conserving,
    )


def _design_for_runs(
    runs: Sequence[RunSample], terms: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(design matrix, targets, demand fractions), samples flattened."""
    blocks = []
    targets = []
    demands = []
    for run in runs:
        feats = _features_for_run(run)
        blocks.append(design_matrix(terms, feats))
        targets.append(run.apc_shared / run.peak_apc)
        demands.append(feats.x.ravel())
    return (
        np.concatenate(blocks, axis=0),
        np.concatenate(targets),
        np.concatenate(demands),
    )


def _solve(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least squares, falling back to ridge on an ill-posed design."""
    coef, _residuals, rank, sv = np.linalg.lstsq(a, y, rcond=None)
    smallest = float(sv[-1]) if sv.size else 0.0
    cond = float(sv[0]) / smallest if smallest > 0 else np.inf
    if rank == a.shape[1] and np.isfinite(cond) and cond <= _COND_LIMIT:
        return coef, False
    gram = a.T @ a
    lam = 1e-8 * max(float(np.trace(gram)) / a.shape[1], 1e-12)
    coef = np.linalg.solve(gram + lam * np.eye(a.shape[1]), a.T @ y)
    return coef, True


def _solve_weighted(
    a: np.ndarray, y: np.ndarray, rel_floor: float
) -> tuple[np.ndarray, bool]:
    """WLS with relative-error-leaning weights (see module docstring)."""
    w = (1.0 / np.maximum(y, rel_floor)) ** _WEIGHT_EXP
    return _solve(a * w[:, None], y * w)


def _metrics(
    y: np.ndarray, pred: np.ndarray, rel_floor: float
) -> tuple[float, float]:
    """(R^2 over all samples, MAPE over the non-starved ones).

    MAPE excludes samples with ``y < rel_floor`` -- the starvation
    guard described at :data:`DEFAULT_REL_FLOOR`.  A dataset that is
    *all* starved yields MAPE 0 (vacuous), but its R^2 still reflects
    absolute fit quality.
    """
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - float(np.mean(y))) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    keep = y >= rel_floor
    if keep.any():
        mape = float(np.mean(np.abs(pred[keep] - y[keep]) / y[keep]))
    else:
        mape = 0.0
    return r2, mape


def score_predictions(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
) -> tuple[float, float]:
    """(R^2, MAPE) of normalized predictions against normalized truth.

    The public face of the fit-time scorer, shared with the online
    drift monitor (:mod:`repro.watch.drift`): both offline gates and
    live shadow-sample scoring use the same R^2 definition and the same
    starvation-floor MAPE, so "the artifact passed its gate" and "the
    artifact is drifting past its gate" are directly comparable
    statements.  Inputs are flat arrays of ``APC / B`` values.
    """
    y = np.asarray(y_true, dtype=float).ravel()
    pred = np.asarray(y_pred, dtype=float).ravel()
    if y.shape != pred.shape:
        raise ConfigurationError(
            f"y_true has shape {y.shape}, y_pred {pred.shape}"
        )
    if y.size == 0:
        raise ConfigurationError("cannot score an empty prediction set")
    return _metrics(y, pred, rel_floor)


def fit_scheme(
    scheme: str,
    runs: Sequence[RunSample],
    *,
    terms: Sequence[str] | None = None,
    thresholds: QualityThresholds | None = None,
    seed: int = 13,
    cv_folds: int = 5,
) -> SchemeFit:
    """Fit one scheme's surface; quality is K-fold cross-validated.

    The folds split *runs*, so held-out samples never share a
    simulation with the training set.  Each run is scored exactly once
    while held out; the reported R^2/MAPE pool all held-out samples
    (one 3-run split would be noise-dominated at sweep sizes of a few
    dozen runs).  The shipped coefficients are then refit on every run.
    """
    thresholds = thresholds or QualityThresholds()
    if terms is None:
        terms = terms_for_scheme(scheme)
    if len(runs) < max(cv_folds, 5):
        raise ConfigurationError(
            f"scheme {scheme!r} has only {len(runs)} runs; "
            f"need >= {max(cv_folds, 5)} for {cv_folds}-fold cross-validation"
        )
    order = np.random.default_rng(seed).permutation(len(runs))
    folds = np.array_split(order, cv_folds)
    held_y: list[np.ndarray] = []
    held_pred: list[np.ndarray] = []
    for fold_idx in range(cv_folds):
        test = [runs[i] for i in folds[fold_idx]]
        train = [
            runs[i]
            for other in range(cv_folds)
            if other != fold_idx
            for i in folds[other]
        ]
        a_train, y_train, _ = _design_for_runs(train, terms)
        coef, _ridge = _solve_weighted(a_train, y_train, thresholds.rel_floor)
        a_test, y_test, x_test = _design_for_runs(test, terms)
        held_pred.append(np.clip(a_test @ coef, 0.0, x_test))
        held_y.append(y_test)
    y_all = np.concatenate(held_y)
    r2, mape = _metrics(y_all, np.concatenate(held_pred), thresholds.rel_floor)

    a_full, y_full, _ = _design_for_runs(runs, terms)
    coef, ridge = _solve_weighted(a_full, y_full, thresholds.rel_floor)
    return SchemeFit(
        scheme=scheme,
        terms=tuple(terms),
        coef=tuple(float(c) for c in coef),
        r2=r2,
        mape=mape,
        n_train=len(runs),
        n_test=int(y_all.shape[0]),
        ridge=ridge,
    )


def evaluate_fit(
    fit: SchemeFit,
    runs: Sequence[RunSample],
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
) -> tuple[float, float]:
    """(R^2, MAPE) of ``fit``'s *stored* coefficients over ``runs``.

    No refitting -- this scores a shipped artifact against a dataset
    (``repro-surrogate eval``), so the numbers are in-sample whenever
    ``runs`` is the sweep the artifact was fitted on.
    """
    a, y, x = _design_for_runs(runs, fit.terms)
    pred = np.clip(a @ np.asarray(fit.coef, dtype=float), 0.0, x)
    return _metrics(y, pred, rel_floor)


def fit_surface(
    dataset: Mapping[str, Sequence[RunSample]],
    *,
    terms: Sequence[str] | None = None,
    thresholds: QualityThresholds | None = None,
    seed: int = 13,
    cv_folds: int = 5,
) -> FitReport:
    """Fit every scheme in ``dataset``; returns the gated report.

    ``terms=None`` selects the per-scheme default basis
    (:func:`terms_for_scheme`).  Serving defaults (``row_locality`` /
    ``bank_frac`` substituted for requests that do not carry
    stream-shape hints) are the training means across the whole
    dataset.
    """
    thresholds = thresholds or QualityThresholds()
    if not dataset:
        raise ConfigurationError("cannot fit an empty dataset")
    fits = {
        scheme: fit_scheme(
            scheme,
            list(runs),
            terms=terms,
            thresholds=thresholds,
            seed=seed,
            cv_folds=cv_folds,
        )
        for scheme, runs in sorted(dataset.items())
    }
    all_runs = [run for runs in dataset.values() for run in runs]
    defaults = {
        "row_locality": float(
            np.mean(np.concatenate([r.row_locality for r in all_runs]))
        ),
        "bank_frac": float(
            np.mean(np.concatenate([r.bank_frac for r in all_runs]))
        ),
    }
    return FitReport(fits=fits, thresholds=thresholds, defaults=defaults)
