"""Sweep compilation and dataset assembly for the surrogate fit.

The sweep is expressed as :mod:`repro.experiments.plan` points --
``sprofile`` (alone-mode profile of one synthetic app) and ``srun``
(one app group under one scheme) -- so it rides the PR-4 planner
end-to-end: content-addressed dedup against the persistent SimCache,
profile -> run dependency edges, cost-aware parallel dispatch.  A
re-fit over an already-swept design performs zero simulations.

``collect_dataset`` turns executed ``srun`` results into per-scheme
training runs.  Everything is normalized by the DRAM peak APC
(``B``): the Eq. 2 machinery is homogeneous of degree one in
bandwidth, so the fitted surface transfers across bus generations and
across the request-supplied ``bandwidth`` at serve time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.sim.engine import SimConfig
from repro.surrogate.space import SweepSettings, sample_groups
from repro.util.cache import SimCache, config_digest
from repro.util.errors import ConfigurationError

__all__ = [
    "RunSample",
    "surrogate_config",
    "sweep_points",
    "sweep_digest",
    "compile_sweep",
    "run_sweep",
    "collect_dataset",
]

ConfigFactory = Callable[..., SimConfig]


def surrogate_config(dram: Any = None) -> SimConfig:
    """The training sweep's simulation windows (the default factory).

    500k measured cycles sits between the experiments' quick (250k)
    and full (1M) windows: it is the validated point where per-sample
    sampling noise stays inside the 5% MAPE gate while a full smoke
    sweep still simulates in ~15 s.  The factory is part of the sweep
    digest, so changing windows re-keys the artifact.
    """
    kwargs = {} if dram is None else {"dram": dram}
    return SimConfig(
        warmup_cycles=100_000.0, measure_cycles=500_000.0, seed=7, **kwargs
    )


def _default_factory() -> ConfigFactory:
    return surrogate_config


def sweep_points(
    settings: SweepSettings, config_factory: ConfigFactory | None = None
) -> list[Any]:
    """The sweep's plan points (``sprofile`` + ``srun``), profiles first.

    ``config_factory(dram=None) -> SimConfig`` supplies the simulation
    windows; each bandwidth cell rebuilds the config at its scaled
    DRAM through the factory, exactly like the Figure 4 demand.
    """
    from repro.experiments.plan import SurrogateProfilePoint, SurrogateRunPoint

    if config_factory is None:
        config_factory = _default_factory()
    base_dram = config_factory().dram
    groups = sample_groups(settings)
    profiles: dict[str, SurrogateProfilePoint] = {}
    runs: list[SurrogateRunPoint] = []
    for cell, apps in groups:
        cfg = config_factory(cell.dram(base_dram))
        for app in apps:
            point = SurrogateProfilePoint(app, cfg)
            profiles.setdefault(point.digest(), point)
        for scheme in settings.schemes:
            runs.append(SurrogateRunPoint(apps=apps, scheme=scheme, config=cfg))
    return list(profiles.values()) + list(runs)


def sweep_digest(
    settings: SweepSettings, config_factory: ConfigFactory | None = None
) -> str:
    """Content address of the sweep design (keys the model artifact)."""
    if config_factory is None:
        config_factory = _default_factory()
    return config_digest("surrogate-sweep", settings, config_factory())


def compile_sweep(
    settings: SweepSettings, config_factory: ConfigFactory | None = None
) -> Any:
    """The sweep as a compiled :class:`~repro.experiments.plan.SweepPlan`."""
    from repro.experiments.plan import points_plan

    return points_plan(
        sweep_points(settings, config_factory), name="surrogate"
    )


def _execute_serial(plan: Any) -> dict[str, Any]:
    """In-process plan execution (tests, small sweeps): same SimCache
    protocol as the dispatcher, no process pool."""
    from repro.surrogate.tasks import (
        SRUN_SCHEMA_VERSION,
        surrogate_profile_task,
        surrogate_run_task,
    )

    cache = SimCache()
    results: dict[str, Any] = {}
    # plan.tasks is profiles-first (points_plan inserts them first), so
    # a single in-order walk satisfies every dependency
    for digest, task in plan.tasks.items():
        point = task.point
        if task.kind == "sprofile":
            stored = cache.get(digest)
            if (
                stored is not None
                and "apc_alone" in stored
                and "ipc_alone" in stored
            ):
                results[digest] = (
                    point.app.name,
                    float(stored["apc_alone"]),
                    float(stored["ipc_alone"]),
                )
                continue
            name, apc, ipc = surrogate_profile_task((point.app, point.config))
            cache.put(digest, {"apc_alone": apc, "ipc_alone": ipc})
            results[digest] = (name, apc, ipc)
        elif task.kind == "srun":
            stored = cache.get(digest)
            if (
                stored is not None
                and stored.get("schema_version") == SRUN_SCHEMA_VERSION
                and isinstance(stored.get("samples"), list)
            ):
                results[digest] = stored
                continue
            alone_table = {
                results[d][0]: (results[d][1], results[d][2])
                for d in task.deps
            }
            out = surrogate_run_task(
                (point.apps, point.scheme, point.config, alone_table)
            )
            cache.put(digest, out)
            results[digest] = out
        else:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"surrogate sweeps cannot execute {task.kind!r} tasks serially"
            )
    return results


def run_sweep(
    settings: SweepSettings,
    config_factory: ConfigFactory | None = None,
    *,
    workers: int | None = None,
    parallel: bool = True,
) -> dict[str, dict[str, Any]]:
    """Execute the sweep; returns ``{srun digest: result dict}``.

    ``parallel=True`` routes through the shared cost-aware dispatcher
    (:func:`repro.experiments.dispatch.execute_plan`); ``False`` runs
    in-process.  Either way, results land in (and are served from) the
    persistent SimCache.
    """
    plan = compile_sweep(settings, config_factory)
    if parallel:
        from repro.experiments.dispatch import execute_plan

        results = execute_plan(plan, workers).results
    else:
        results = _execute_serial(plan)
    return {
        digest: results[digest]
        for digest, task in plan.tasks.items()
        if task.kind == "srun" and digest in results
    }


# ----------------------------------------------------------------------
# dataset assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSample:
    """One executed ``srun``: per-app vectors plus the run's peak APC."""

    scheme: str
    peak_apc: float
    api: np.ndarray
    apc_alone: np.ndarray
    row_locality: np.ndarray
    bank_frac: np.ndarray
    apc_shared: np.ndarray

    @property
    def n_apps(self) -> int:
        return int(self.apc_alone.shape[0])


def collect_dataset(
    run_results: Iterable[Mapping[str, Any]],
) -> dict[str, list[RunSample]]:
    """Group executed ``srun`` result dicts into per-scheme run samples."""
    by_scheme: dict[str, list[RunSample]] = {}
    for res in run_results:
        samples = res["samples"]
        if not samples:
            continue
        run = RunSample(
            scheme=str(res["scheme"]),
            peak_apc=float(res["peak_apc"]),
            api=np.array([s["api"] for s in samples], dtype=float),
            apc_alone=np.array([s["apc_alone"] for s in samples], dtype=float),
            row_locality=np.array(
                [s["row_locality"] for s in samples], dtype=float
            ),
            bank_frac=np.array([s["bank_frac"] for s in samples], dtype=float),
            apc_shared=np.array(
                [s["apc_shared"] for s in samples], dtype=float
            ),
        )
        by_scheme.setdefault(run.scheme, []).append(run)
    return by_scheme
