# reprolint: disable-file=dead-code
# Paper content: the footnote-1 shared-L2 extension (Sec. IV-A).  No
# console script runs it; examples/shared_l2_partitioning.py does.
"""Shared-L2 extension of the model (paper Sec. IV-A, footnote 1).

The mainline model assumes private L2s, so each app's API is a constant.
The paper's footnote: "our model can also be extended to a partitioned
shared L2 CMP system.  In a shared L2 CMP, an application's API will be
affected by its L2 cache capacity share.  Hence, we can extend our model
by replacing API_i with API_shared,i ... constant to memory bandwidth
partitioning and obtained online with a non-invasive resource profiler."

This module delivers that extension:

* :class:`MissRatioCurve` -- an app's off-chip API as a function of its
  L2 capacity share (the non-invasive profiler's output; the companion
  helper :func:`profile_miss_ratio_curve` *measures* such a curve by
  running a reference stream through :mod:`repro.sim.cache` at several
  capacities);
* :class:`SharedL2App` / :class:`SharedL2Model` -- joint evaluation of a
  (cache partition, bandwidth partition) pair: the cache shares fix each
  app's ``API_shared,i`` (and its demand ``APC_alone,i`` at that API),
  then the ordinary bandwidth model applies unchanged, exactly as the
  footnote prescribes;
* :func:`optimize_joint` -- grid search over cache partitions with the
  bandwidth partition derived optimally inside (the bandwidth subproblem
  stays closed-form, so the joint search is cheap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.core.apps import AppProfile, Workload
from repro.core.metrics import Metric
from repro.core.model import AnalyticalModel, OperatingPoint
from repro.util.errors import ConfigurationError
from repro.util.validation import as_float_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.refgen import RefStreamSpec

__all__ = [
    "MissRatioCurve",
    "profile_miss_ratio_curve",
    "SharedL2App",
    "SharedL2Model",
    "JointPoint",
    "optimize_joint",
]


@dataclass(frozen=True)
class MissRatioCurve:
    """Off-chip API versus L2 capacity share for one application.

    Piecewise-linear interpolation between profiled points; shares
    outside the profiled range clamp to the end points.  APIs must be
    non-increasing in capacity (more cache never misses more) -- enforced
    because a non-monotone curve breaks the joint optimizer's pruning.
    """

    shares: tuple[float, ...]
    apis: tuple[float, ...]

    def __post_init__(self) -> None:
        s = as_float_array("shares", self.shares)
        a = as_float_array("apis", self.apis)
        if len(s) != len(a) or len(s) < 2:
            raise ConfigurationError("curve needs >= 2 matching points")
        if np.any(s < 0) or np.any(s > 1) or np.any(np.diff(s) <= 0):
            raise ConfigurationError("shares must be increasing within [0, 1]")
        if np.any(a <= 0):
            raise ConfigurationError("APIs must be positive")
        if np.any(np.diff(a) > 1e-12):
            raise ConfigurationError(
                "API must be non-increasing in cache share"
            )

    def api_at(self, share: float) -> float:
        """Interpolated API at a cache share."""
        return float(
            np.interp(share, np.asarray(self.shares), np.asarray(self.apis))
        )


def profile_miss_ratio_curve(
    spec: "RefStreamSpec",
    *,
    total_l2_bytes: int = 1024 * 1024,
    shares: Sequence[float] = (0.125, 0.25, 0.5, 1.0),
    instructions: int = 60_000,
    seed: int = 2013,
    ways: int = 8,
) -> MissRatioCurve:
    """Measure an app's API(share) curve with the functional caches.

    ``spec`` is a :class:`repro.workloads.refgen.RefStreamSpec`; each
    probed share gets a hierarchy whose L2 is that fraction of
    ``total_l2_bytes`` (way-rounded), mirroring way-partitioned shared
    caches.  This is the "non-invasive resource profiler" stand-in.
    """
    from repro.sim.cache import CacheConfig, CacheHierarchy
    from repro.workloads.refgen import measure_apki

    points: list[tuple[float, float]] = []
    line = 64
    for share in shares:
        size = int(total_l2_bytes * share)
        # round down to a legal (ways x line)-divisible size, >= 1 way-set
        unit = ways * line
        size = max(unit, (size // unit) * unit)
        hierarchy = CacheHierarchy(
            l2=CacheConfig(size_bytes=size, ways=ways, line_bytes=line)
        )
        apki = measure_apki(
            spec, instructions=instructions, seed=seed, hierarchy=hierarchy
        )
        points.append((float(share), max(apki, 1e-6) / 1000.0))
    points.sort()
    s, a = zip(*points)
    # enforce monotonicity against sampling jitter
    a = tuple(float(x) for x in np.minimum.accumulate(a))
    return MissRatioCurve(shares=s, apis=a)


@dataclass(frozen=True)
class SharedL2App:
    """One application in the shared-L2 model.

    ``ipc_peak_memfree`` is the IPC the app would reach with a perfect
    L2 (the compute ceiling); its standalone demand at cache share ``c``
    is then ``APC_alone(c) = API(c) * ipc_alone(c)`` with
    ``ipc_alone(c)`` supplied by ``alone_ipc_at`` (default: the compute
    ceiling -- bandwidth-unconstrained alone runs).
    """

    name: str
    curve: MissRatioCurve
    ipc_peak_memfree: float

    def profile_at(self, cache_share: float) -> AppProfile:
        api = self.curve.api_at(cache_share)
        return AppProfile(
            self.name, api=api, apc_alone=api * self.ipc_peak_memfree
        )


@dataclass(frozen=True)
class JointPoint:
    """One (cache partition, bandwidth operating point) pair."""

    cache_shares: np.ndarray
    operating_point: OperatingPoint
    metric_value: float


class SharedL2Model:
    """Joint cache + bandwidth evaluation (footnote 1 realized)."""

    def __init__(self, apps: Sequence[SharedL2App], total_bandwidth: float) -> None:
        if not apps:
            raise ConfigurationError("need at least one app")
        self.apps = list(apps)
        self.total_bandwidth = total_bandwidth

    def workload_at(self, cache_shares: ArrayLike) -> Workload:
        """The bandwidth-model workload induced by a cache partition."""
        c = as_float_array("cache_shares", cache_shares)
        if len(c) != len(self.apps):
            raise ConfigurationError("one cache share per app required")
        if np.any(c < 0) or c.sum() > 1.0 + 1e-9:
            raise ConfigurationError("cache shares must be >= 0 and sum <= 1")
        return Workload.of(
            "shared-l2",
            [app.profile_at(float(ci)) for app, ci in zip(self.apps, c)],
        )

    def evaluate(self, cache_shares: ArrayLike, metric: Metric) -> JointPoint:
        """Best bandwidth partition for ``metric`` at this cache split."""
        wl = self.workload_at(cache_shares)
        model = AnalyticalModel(wl, self.total_bandwidth)
        op = model.optimal_operating_point(metric)
        return JointPoint(
            cache_shares=as_float_array("cache_shares", cache_shares),
            operating_point=op,
            metric_value=op.evaluate(metric),
        )


def optimize_joint(
    model: SharedL2Model,
    metric: Metric,
    *,
    granularity: int = 8,
) -> JointPoint:
    """Grid-search cache partitions; bandwidth solved optimally inside.

    Cache shares are multiples of ``1/granularity`` (way-partitioned
    caches allocate in way units), each app gets at least one unit.
    Exhaustive over compositions -- fine for the paper's 4-core scale
    (C(granularity-1, n-1) points).
    """
    n = len(model.apps)
    if granularity < n:
        raise ConfigurationError("granularity must be >= number of apps")
    best: JointPoint | None = None
    # compositions of `granularity` units into n positive parts
    for units in _compositions(granularity, n):
        shares = np.array(units, dtype=float) / granularity
        point = model.evaluate(shares, metric)
        if best is None or point.metric_value > best.metric_value:
            best = point
    assert best is not None
    return best


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
