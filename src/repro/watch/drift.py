"""Online surrogate drift detection via sim shadow-sampling.

The surrogate's quality gate (held-out R² ≥ 0.98, MAPE ≤ 5%, see
:mod:`repro.surrogate.fit`) is checked *at fit time*, on the sweep the
artifact was trained on.  Live traffic can leave that envelope -- new
(API, APC_alone, locality, B) regions, a DRAM config the sweep never
saw -- and the surrogate then degrades silently: it still answers in
microseconds, just wrongly.

The watch layer closes that gap by *shadow-sampling*: a configurable
fraction of surrogate-served solves is re-solved through the bounded
per-request sim path asynchronously (off the request's latency path),
and the (sim, surrogate) pair feeds an online scorer that reuses the
fit-time metric code (:func:`repro.surrogate.fit.score_predictions`) on
a bounded window of recent pairs per scheme.  When the online MAPE
breaches the artifact's gate, the monitor flips ``degraded`` (with
hysteresis so it does not flap at the boundary); the service can then
route solves to the sim until the score recovers or the artifact is
refit.

Two deliberate non-features keep the overhead bounded and the numbers
deterministic:

* sampling is a *counter stride*, not an RNG draw -- at rate 0.05
  exactly every 20th surrogate solve is shadowed, so a replayed
  request log shadows the same requests;
* shadow concurrency is capped -- when ``max_inflight`` shadows are
  already running, further due samples are *skipped and counted*
  (``skipped_inflight``), so a traffic burst can never stack up sim
  work behind itself.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Sequence

from repro.surrogate.fit import DEFAULT_REL_FLOOR, score_predictions
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

__all__ = ["ShadowSampler", "DriftMonitor"]


class ShadowSampler:
    """Deterministic stride sampler with a concurrency bound.

    ``try_acquire`` answers "shadow this solve?": it is true for every
    ``stride``-th call (stride = round(1/rate)) *provided* fewer than
    ``max_inflight`` shadows are currently running; a due sample that
    finds the bound full is skipped and counted instead of queued.
    ``release`` must be called exactly once per successful acquire
    (use ``try/finally`` around the shadow solve).
    """

    def __init__(self, rate: float, *, max_inflight: int = 2) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ConfigurationError(
                f"shadow rate must be in [0, 1], got {rate}"
            )
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.rate = float(rate)
        self.stride = 0 if rate == 0.0 else max(1, round(1.0 / rate))
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._calls = 0
        self._sampled = 0
        self._skipped_inflight = 0
        self._inflight = 0

    def try_acquire(self) -> bool:
        if self.stride == 0:
            return False
        with self._lock:
            self._calls += 1
            if self._calls % self.stride != 0:
                return False
            if self._inflight >= self.max_inflight:
                self._skipped_inflight += 1
                return False
            self._inflight += 1
            self._sampled += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("release() without a matching try_acquire()")
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        return self._inflight

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rate": self.rate,
                "stride": self.stride,
                "calls": self._calls,
                "sampled": self._sampled,
                "skipped_inflight": self._skipped_inflight,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
            }


class DriftMonitor:
    """Online MAPE/R² per scheme over a bounded shadow-pair window.

    ``record`` takes one shadow result -- the normalized per-app APC
    vectors from the sim (truth) and the surrogate (prediction) -- and
    rescoring the scheme's whole window with
    :func:`repro.surrogate.fit.score_predictions` keeps the online
    number directly comparable to the artifact's fit-time card.

    Unit: ``window``, ``min_samples`` and the reported ``n`` count
    *shadow samples*, one per shadowed request whatever its app count;
    the MAPE pools the per-app values of every sample in the window.

    The ``degraded`` flag breaches when any scheme's windowed MAPE
    exceeds ``max_mape`` with at least ``min_samples`` samples in the
    window, and recovers only once every breached scheme's MAPE falls
    back to ``max_mape * recover_margin`` -- the hysteresis band keeps
    a borderline artifact from flapping the serving path.
    """

    def __init__(
        self,
        *,
        max_mape: float = 0.05,
        rel_floor: float = DEFAULT_REL_FLOOR,
        window: int = 128,
        min_samples: int = 8,
        recover_margin: float = 0.8,
        registry: "MetricsRegistry | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_mape <= 0:
            raise ConfigurationError(f"max_mape must be > 0, got {max_mape}")
        if window < 1 or min_samples < 1:
            raise ConfigurationError("window and min_samples must be >= 1")
        if not (0.0 < recover_margin <= 1.0):
            raise ConfigurationError(
                f"recover_margin must be in (0, 1], got {recover_margin}"
            )
        self.max_mape = float(max_mape)
        self.rel_floor = float(rel_floor)
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.recover_margin = float(recover_margin)
        self._registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        #: scheme -> deque of samples, each the request's per-app
        #: (y_true_norm, y_pred_norm) pairs
        self._pairs: dict[str, deque[tuple[tuple[float, float], ...]]] = {}
        #: schemes currently holding the degraded flag
        self._breached: set[str] = set()
        self._samples = 0
        self._last_sample_at: float | None = None

    # ------------------------------------------------------------------
    def _score(self, scheme: str) -> tuple[float, float, int]:
        """(mape, r2, n samples) of the scheme's window (lock held)."""
        samples = self._pairs[scheme]
        y = [t for sample in samples for t, _p in sample]
        pred = [p for sample in samples for _t, p in sample]
        r2, mape = score_predictions(y, pred, rel_floor=self.rel_floor)
        return mape, r2, len(samples)

    def record(
        self,
        scheme: str,
        y_true: Sequence[float],
        y_pred: Sequence[float],
    ) -> dict:
        """Fold one shadow solve into the window; returns the new score.

        ``y_true`` / ``y_pred`` are the request's per-app ``APC / B``
        vectors from the sim and the surrogate respectively.
        """
        if len(y_true) != len(y_pred) or not len(y_true):
            raise ConfigurationError(
                f"shadow pair shape mismatch: {len(y_true)} true vs "
                f"{len(y_pred)} predicted values"
            )
        _r2s, sample_mape = score_predictions(
            y_true, y_pred, rel_floor=self.rel_floor
        )
        with self._lock:
            window = self._pairs.setdefault(
                scheme, deque(maxlen=self.window)
            )
            window.append(
                tuple((float(t), float(p)) for t, p in zip(y_true, y_pred))
            )
            self._samples += 1
            self._last_sample_at = self._clock()
            mape, r2, n = self._score(scheme)
            if n >= self.min_samples:
                if mape > self.max_mape:
                    self._breached.add(scheme)
                elif mape <= self.max_mape * self.recover_margin:
                    self._breached.discard(scheme)
            degraded = bool(self._breached)
        if self._registry is not None:
            self._registry.counter("surrogate.drift.samples", scheme=scheme).inc()
            self._registry.gauge("surrogate.drift.mape", scheme=scheme).set(mape)
            self._registry.gauge("surrogate.drift.r2", scheme=scheme).set(r2)
            self._registry.gauge("surrogate.drift.degraded").set(
                1.0 if degraded else 0.0
            )
        return {
            "scheme": scheme,
            "sample_mape": sample_mape,
            "mape": mape,
            "r2": r2,
            "n": n,
            "breached": scheme in self._breached,
            "degraded": degraded,
        }

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while any scheme's online MAPE holds past the gate."""
        with self._lock:
            return bool(self._breached)

    def breached_schemes(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._breached))

    def age_s(self) -> float | None:
        """Seconds since the last shadow sample (None before the first)."""
        with self._lock:
            if self._last_sample_at is None:
                return None
            return max(0.0, self._clock() - self._last_sample_at)

    def snapshot(self) -> dict:
        with self._lock:
            schemes = {}
            for scheme in sorted(self._pairs):
                mape, r2, n = self._score(scheme)
                schemes[scheme] = {
                    "mape": mape,
                    "r2": r2,
                    "n": n,
                    "breached": scheme in self._breached,
                }
            return {
                "max_mape": self.max_mape,
                "min_samples": self.min_samples,
                "recover_margin": self.recover_margin,
                "window": self.window,
                "samples": self._samples,
                "degraded": bool(self._breached),
                "breached": sorted(self._breached),
                "schemes": schemes,
            }
