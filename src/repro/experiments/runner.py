"""Experiment runner: maps (mix, partitioning scheme) to simulations.

This module reproduces the paper's methodology end-to-end:

1. *Profiling*: each benchmark is run alone at the experiment's DRAM
   configuration to measure ``APC_alone`` / ``IPC_alone`` (the paper
   fast-forwards then profiles; our surrogates are stationary so a
   single warmed-up window suffices).  A profile is keyed by
   (benchmark, DRAM config, windows, seed), in memory and in the
   persistent SimCache.
2. *Partition computation*: the scheme under test converts the measured
   alone profiles into a share vector (share-based schemes) or a
   priority order (priority schemes) -- Sec. V-D.
3. *Enforcement*: shares run on the start-time-fair scheduler
   (Sec. IV-B); priority schemes on the strict-priority scheduler;
   ``No_partitioning`` on plain FCFS.
4. *Measurement*: shared-mode IPCs feed the four metrics of Sec. V-A,
   normalized to ``No_partitioning`` exactly as in Figs. 1-3 (or to
   ``Equal`` for the Fig. 4 scalability study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.apps import AppProfile, Workload
from repro.core.metrics import ALL_METRICS
from repro.core.partitioning import (
    PartitioningScheme,
    PriorityScheme,
    ShareBasedScheme,
    default_schemes,
)
from repro.experiments.dispatch import execute_local
from repro.experiments.plan import (
    HeuristicPoint,
    ProfilePoint,
    RunPoint,
    points_plan,
    profile_points,
)
from repro.sim.cpu import CoreSpec
from repro.sim.engine import SimConfig
from repro.sim.mc.base import Scheduler
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.mc.priority import PriorityScheduler
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.sim.stats import SimResult
from repro.util.errors import ConfigurationError

__all__ = ["SchemeRun", "Runner", "NOPART", "ALL_SCHEME_NAMES", "scheduler_factory"]

NOPART = "nopart"
#: the seven schemes of the paper's evaluation, report order
ALL_SCHEME_NAMES: tuple[str, ...] = (
    NOPART,
    "equal",
    "prop",
    "sqrt",
    "twothirds",
    "prio_apc",
    "prio_api",
)

#: the six managed schemes by name; they hold no per-call state
_SCHEMES: dict[str, PartitioningScheme] = default_schemes()


def scheduler_factory(
    scheme_name: str, profiles: Workload
) -> Callable[[int], Scheduler]:
    """Build the enforcement mechanism for a scheme (Sec. IV-B)."""
    if scheme_name == NOPART:
        return lambda n: FCFSScheduler(n)
    try:
        scheme = _SCHEMES[scheme_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme_name!r}; available: {ALL_SCHEME_NAMES}"
        ) from None
    if isinstance(scheme, ShareBasedScheme):
        beta = scheme.beta(profiles)
        return lambda n: StartTimeFairScheduler(n, beta)
    if isinstance(scheme, PriorityScheme):
        order = scheme.priority_order(profiles)
        return lambda n: PriorityScheduler(n, order)
    raise ConfigurationError(  # pragma: no cover - defensive
        f"scheme {scheme_name!r} has no scheduler mapping"
    )


@dataclass(frozen=True)
class SchemeRun:
    """One (workload x scheme) simulation plus its derived metrics."""

    mix: str
    scheme: str
    sim: SimResult
    ipc_alone: np.ndarray
    apc_alone: np.ndarray

    @property
    def speedups(self) -> np.ndarray:
        return self.sim.ipc_shared / self.ipc_alone

    @property
    def metrics(self) -> dict[str, float]:
        """The four paper metrics at this operating point."""
        return {
            m.name: m(self.sim.ipc_shared, self.ipc_alone) for m in ALL_METRICS
        }


class Runner:
    """A read-only view of one results table at one simulation config.

    ``results`` maps a plan task's digest to its result -- the table
    :meth:`~repro.experiments.dispatch.Dispatcher.execute` returns.
    Every digest includes its config, so one table serves runners at
    every config.  A point missing from the table is compiled with its
    mix's profiles (:func:`~repro.experiments.plan.points_plan`) and run
    in this process by the dispatcher's own task code and SimCache
    protocol (:func:`~repro.experiments.dispatch.execute_local`); its
    result joins the table.
    """

    def __init__(
        self, sim_config: SimConfig | None = None, results: dict | None = None
    ) -> None:
        self.sim_config = sim_config or SimConfig()
        self.results: dict = {} if results is None else results

    def _read(self, point, profiles_of: str | None = None):
        digest = point.digest()
        if digest not in self.results:
            profiles = profile_points((profiles_of,), point.config) if profiles_of else []
            execute_local(points_plan([*profiles, point]), self.results)
        return self.results[digest]

    def alone_point(self, spec: CoreSpec) -> tuple[float, float]:
        """(apc_alone, ipc_alone) of a registered benchmark's core spec;
        a copy (``name#i``) reads its benchmark's profile."""
        point = ProfilePoint(spec.name.split("#")[0], self.sim_config)
        _name, apc, ipc = self._read(point)
        return apc, ipc

    def profiles(self, specs: Sequence[CoreSpec]) -> Workload:
        """Measured alone-mode profiles for a set of core specs."""
        apps = []
        for spec in specs:
            apc, _ipc = self.alone_point(spec)
            apps.append(AppProfile(spec.name, api=spec.api, apc_alone=apc))
        return Workload.of("measured", apps)

    def run(self, mix: str, scheme_name: str, *, copies: int = 1) -> SchemeRun:
        """One (mix x scheme) run, shares derived from measured profiles."""
        point = RunPoint(mix, scheme_name, copies, self.sim_config)
        return self._read(point, profiles_of=mix)

    def heuristic(self, mix: str, scheduler: str) -> SimResult:
        """One heuristic-scheduler run (PAR-BS / TCM) of ``mix``."""
        return self._read(HeuristicPoint(mix, scheduler, 1, self.sim_config))

    # ------------------------------------------------------------------
    # normalization helpers (Figs. 1-4 all report normalized metrics)
    # ------------------------------------------------------------------
    def normalized_metrics(
        self, mix: str, scheme_names: Iterable[str]
    ) -> dict[str, dict[str, float]]:
        """{scheme: {metric: value / No_partitioning value}} for one mix."""
        base = self.run(mix, NOPART).metrics
        out: dict[str, dict[str, float]] = {}
        for s in scheme_names:
            m = self.run(mix, s).metrics
            out[s] = {
                k: (m[k] / base[k] if base[k] > 0 else float("inf"))
                for k in m
            }
        return out
