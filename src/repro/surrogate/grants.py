"""Normalized grant kernel for the surrogate feature pipeline.

The fitted response surface (:mod:`repro.surrogate.fit`) uses each
app's closed-form *grant* -- what the scheme's allocator would hand it
-- as a regression feature.  :func:`repro.core.batch.batch_allocate`
computes that number, but it is the serving solver for the analytic
profile and carries that path's contract: full request re-validation,
the Eq. 2 conservation assert, and the mask "freeze" machinery that
keeps every row bit-identical to the scalar schemes even when other
rows in the stack force extra water-filling rounds.  None of that is
needed to compute a feature on inputs the request parser (or the
sweep runner) has already validated, and at batch 1 -- the worst case
the micro-batcher hands the surrogate -- the defensive machinery
*dominated* the serve-path latency budget (~0.12 ms of the ~0.25 ms
solve; see ``benchmarks/bench_service.py --profile surrogate``).

This kernel computes the same water-fill / greedy-fill mathematics in
normalized units (budget 1, demands ``x = APC_alone / B``) with a
minimum of numpy dispatches, roughly 6x cheaper at batch 1.  Two
properties matter, and both are under test (``tests/surrogate/``):

* **train/serve consistency** -- fitting and serving call this same
  code, so the surface is scored on exactly the features it is served
  with.  Agreement with the :mod:`repro.core` solvers is ~1 ulp (same
  math, leaner op order), so the fitted coefficients are
  interchangeable across both.
* **batch invariance** -- a converged row is *exactly* inert (its
  residual budget clamps to 0.0, so every later round adds 0.0),
  which makes each row's grants independent of whatever else is
  stacked with it: a request's prediction is bit-identical whether it
  is solved alone or inside a micro-batch group.

The grant is a model input, not a served allocation -- the quantity
the service returns under the surrogate profile is the *prediction*
-- so the conservation gate deliberately does not apply here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import POWER_ALPHA
from repro.util.errors import ConfigurationError

__all__ = ["NormalizedGrants", "PRIORITY_SCHEMES", "normalized_grants"]

#: schemes whose grant is a greedy priority fill (carry a rank feature)
PRIORITY_SCHEMES: tuple[str, ...] = ("prio_apc", "prio_api")

#: residual budget (as a fraction of B) below which a row is converged;
#: clamping to exactly 0.0 is what makes converged rows inert
_RESIDUAL_FLOOR = 1e-15


@dataclass(frozen=True)
class NormalizedGrants:
    """Dimensionless grant features for ``k`` requests of ``n`` apps.

    ``x`` is demand / B, ``g`` is grant / B, ``rank`` is the app's
    normalized position in the grant order (0 = highest priority;
    the neutral constant 0.5 for share-based schemes, where there is
    no order).
    """

    x: np.ndarray
    g: np.ndarray
    rank: np.ndarray


def _water_fill(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Share-capped water-fill on a unit budget, row-wise.

    Each round hands every active app its share of the remaining
    budget, capped at its residual demand; capped apps leave the
    active set and their unused share is redistributed.  At most ``n``
    rounds converge every row, and a converged row's residual is
    clamped to exactly 0.0 so further rounds (forced by slower rows in
    the same stack) contribute exactly nothing to it.
    """
    k, n = x.shape
    alloc = np.zeros_like(x)
    remaining = np.ones(k)
    active = beta > 0
    for _ in range(n):
        if not remaining.any() or not active.any():
            break
        w = np.where(active, beta, 0.0)
        total = w.sum(axis=1)
        safe = np.where(total > 0.0, total, 1.0)
        take = np.minimum(remaining[:, None] * w / safe[:, None], x - alloc)
        alloc += take
        spent = remaining - take.sum(axis=1)
        remaining = np.where(spent <= _RESIDUAL_FLOOR, 0.0, spent)
        active &= x - alloc > _RESIDUAL_FLOOR
    return alloc


def normalized_grants(
    scheme: str,
    apc_alone: np.ndarray,
    bandwidth: np.ndarray,
    *,
    api: np.ndarray | None = None,
    work_conserving: bool = True,
) -> NormalizedGrants:
    """Grant features for ``(k, n)`` demands and a ``(k,)`` budget.

    ``api`` is required for ``prio_api`` (its grant order sorts by
    instruction intensity), same as ``batch_allocate``.  Priority
    fills ignore ``work_conserving`` -- a greedy fill never strands
    budget behind an unserved app -- mirroring the scalar solver.
    """
    x = apc_alone / bandwidth[:, None]
    k, n = x.shape

    alpha = POWER_ALPHA.get(scheme)
    if alpha is not None:
        w = apc_alone**alpha
        beta = w / w.sum(axis=1, keepdims=True)
        if work_conserving:
            g = _water_fill(beta, x)
        else:
            g = np.minimum(beta, x)
        return NormalizedGrants(x=x, g=g, rank=np.full((k, n), 0.5))

    if scheme not in PRIORITY_SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: "
            f"{sorted((*POWER_ALPHA, *PRIORITY_SCHEMES))}"
        )
    if scheme == "prio_api":
        if api is None:
            raise ConfigurationError("prio_api needs the api matrix")
        order = np.argsort(api, axis=1, kind="stable")
    else:
        order = np.argsort(apc_alone, axis=1, kind="stable")

    g = np.zeros_like(x)
    remaining = np.ones(k)
    rows = np.arange(k)
    for j in range(n):
        idx = order[:, j]
        take = np.minimum(remaining, x[rows, idx])
        g[rows, idx] = take
        remaining = remaining - take
    if n <= 1:
        rank = np.full((k, n), 0.5)
    else:
        pos = np.empty((k, n))
        pos[rows[:, None], order] = np.arange(n, dtype=float)
        rank = pos / float(n - 1)
    return NormalizedGrants(x=x, g=g, rank=rank)
