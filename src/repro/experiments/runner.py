"""Experiment runner: maps (mix, partitioning scheme) to simulations.

This module reproduces the paper's methodology end-to-end:

1. *Profiling*: each benchmark is run alone at the experiment's DRAM
   configuration to measure ``APC_alone`` / ``IPC_alone`` (the paper
   fast-forwards then profiles; our surrogates are stationary so a
   single warmed-up window suffices).  Results are cached per
   (benchmark, DRAM config, windows, seed).
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

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.apps import AppProfile, Workload
from repro.core.metrics import ALL_METRICS
from repro.core.partitioning import (
    PartitioningScheme,
    PriorityScheme,
    ShareBasedScheme,
    default_schemes,
)
from repro.sim.cpu import CoreSpec
from repro.sim.engine import SimConfig, simulate
from repro.sim.mc.base import Scheduler
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.mc.priority import PriorityScheduler
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.sim.stats import SimResult
from repro.util.cache import SimCache, config_digest
from repro.util.errors import ConfigurationError
from repro.workloads.mixes import mix_core_specs

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
    """Runs and caches profiling + shared-mode simulations.

    Parameters
    ----------
    sim_config:
        Windows/seed/DRAM for every run (alone and shared).
    beta_source:
        ``"measured"`` (default) computes shares from the simulator's own
        alone-run profiles, as the paper's online profiling ultimately
        provides; ``"paper"`` uses Table III's reference values directly
        (the OS-supplied-reference mode of Sec. IV-C).
    """

    def __init__(
        self,
        sim_config: SimConfig | None = None,
        *,
        beta_source: str = "measured",
    ) -> None:
        self.sim_config = sim_config or SimConfig()
        if beta_source not in ("measured", "paper"):
            raise ConfigurationError(
                f"beta_source must be 'measured' or 'paper', got {beta_source!r}"
            )
        self.beta_source = beta_source
        self._alone_cache: dict[str, tuple[float, float]] = {}
        self._run_cache: dict[tuple, SchemeRun] = {}
        #: persistent alone-profile cache (set to a disabled/diverted
        #: instance via REPRO_NO_CACHE / REPRO_CACHE_DIR)
        self.disk_cache = SimCache()

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def _alone_key(self, spec: CoreSpec) -> str:
        """Digest of everything the alone run depends on.

        The full core spec and sim config are hashed field-by-field --
        keying on convenient summaries (a DRAM config's name, say) would
        collide two configurations that share a label but differ in a
        timing parameter, silently reusing the wrong profile.
        """
        base_spec = replace(spec, name=spec.name.split("#")[0])
        return config_digest("alone-point", base_spec, self.sim_config)

    def alone_point(self, spec: CoreSpec) -> tuple[float, float]:
        """(apc_alone, ipc_alone) measured for one core spec.

        Memoized twice: per-runner in memory, and across processes in
        the persistent :class:`~repro.util.cache.SimCache` (so a second
        figure regeneration performs zero alone-mode simulations).
        """
        key = self._alone_key(spec)
        point = self._alone_cache.get(key)
        reg = obs.registry()
        if point is None:
            stored = self.disk_cache.get(key)
            if stored is not None:
                point = (stored["apc_alone"], stored["ipc_alone"])
                reg.counter("profile.cache_hits", layer="disk").inc()
            else:
                reg.counter("profile.cache_misses").inc()
                base_spec = replace(spec, name=spec.name.split("#")[0])
                with obs.span(
                    "runner.profile", attrs={"bench": base_spec.name}
                ):
                    result = simulate(
                        [base_spec], lambda n: FCFSScheduler(n), self.sim_config
                    )
                app = result.apps[0]
                point = (app.apc, app.ipc)
                self.disk_cache.put(
                    key, {"apc_alone": point[0], "ipc_alone": point[1]}
                )
            self._alone_cache[key] = point
        else:
            reg.counter("profile.cache_hits", layer="memory").inc()
        return point

    def profiles(self, specs: Sequence[CoreSpec]) -> Workload:
        """Measured alone-mode profiles for a set of core specs."""
        apps = []
        for spec in specs:
            apc, _ipc = self.alone_point(spec)
            apps.append(AppProfile(spec.name, api=spec.api, apc_alone=apc))
        return Workload.of("measured", apps)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, mix: str, scheme_name: str, *, copies: int = 1) -> SchemeRun:
        """Run one (mix x scheme) simulation; cached per runner."""
        key = (mix, scheme_name, copies)
        if key in self._run_cache:
            return self._run_cache[key]

        with obs.span(
            "runner.point",
            attrs={"mix": mix, "scheme": scheme_name, "copies": copies},
        ):
            specs = mix_core_specs(mix, copies)
            if self.beta_source == "paper":
                from repro.workloads.mixes import mix_paper_workload

                profiles = mix_paper_workload(mix, copies)
                ipc_alone = profiles.ipc_alone
                apc_alone = profiles.apc_alone
            else:
                profiles = self.profiles(specs)
                ipc_alone = np.array(
                    [self.alone_point(s)[1] for s in specs], dtype=float
                )
                apc_alone = profiles.apc_alone

            sim = simulate(
                specs, scheduler_factory(scheme_name, profiles), self.sim_config
            )
            run = SchemeRun(
                mix=mix,
                scheme=scheme_name,
                sim=sim,
                ipc_alone=ipc_alone,
                apc_alone=apc_alone,
            )
        obs.registry().counter("runner.points").inc()
        self._run_cache[key] = run
        return run

    def run_grid(
        self,
        mixes: Iterable[str],
        scheme_names: Iterable[str],
        *,
        copies: int = 1,
    ) -> dict[str, dict[str, SchemeRun]]:
        """{mix: {scheme: SchemeRun}} over the full grid."""
        return {
            mix: {s: self.run(mix, s, copies=copies) for s in scheme_names}
            for mix in mixes
        }

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
