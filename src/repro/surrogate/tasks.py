"""Process-pool worker entry points for surrogate sweep tasks.

Module-level functions (so they pickle under forkserver) mirroring
:mod:`repro.experiments.dispatch`'s ``profile_task`` / ``run_task``:

* ``surrogate_profile_task`` alone-runs one synthetic app and returns
  the same ``(name, apc_alone, ipc_alone)`` tuple shape as benchmark
  profiles, so the dispatcher's alone-table plumbing is shared;
* ``surrogate_run_task`` runs one app group under one scheme's
  enforcement and returns a *plain JSON-able dict* of per-app training
  samples -- small enough that the shared-memory transport is
  unnecessary and the persistent :class:`~repro.util.cache.SimCache`
  can store it directly (re-fits of an already-swept design are nearly
  free).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.apps import AppProfile, Workload
from repro.sim.engine import SimConfig, simulate
from repro.surrogate.space import SurrogateApp

__all__ = [
    "SRUN_SCHEMA_VERSION",
    "surrogate_profile_task",
    "surrogate_run_task",
]

#: bump when the srun result-dict layout changes (cache invalidation)
SRUN_SCHEMA_VERSION = 1


def surrogate_profile_task(
    args: tuple[SurrogateApp, SimConfig],
) -> tuple[str, float, float]:
    """Alone-run one synthetic app; returns (name, apc_alone, ipc_alone)."""
    app, config = args
    from repro.sim.mc.fcfs import FCFSScheduler

    spec = app.core_spec(config.dram)
    result = simulate([spec], lambda n: FCFSScheduler(n), config)
    measured = result.apps[0]
    return app.name, measured.apc, measured.ipc


def surrogate_run_task(
    args: tuple[
        tuple[SurrogateApp, ...],
        str,
        SimConfig,
        dict[str, tuple[float, float]],
    ],
) -> dict[str, Any]:
    """Run one surrogate group under ``scheme``; returns the sample dict.

    The alone table (measured by the group's ``sprofile`` dependencies)
    feeds the scheme's share/priority computation exactly as benchmark
    runs do; per-app shared-mode APC is the training target.
    """
    apps, scheme, config, alone_table = args
    from repro.experiments.runner import scheduler_factory

    # positional name suffixes keep duplicate archetypes distinct in
    # the simulator (same convention as mix_core_specs with copies > 1)
    specs = [
        replace(app.core_spec(config.dram), name=f"{app.name}#{i}")
        for i, app in enumerate(apps)
    ]
    profiles = Workload.of(
        "surrogate",
        [
            AppProfile(
                s.name,
                api=s.api,
                apc_alone=alone_table[s.name.split("#")[0]][0],
            )
            for s in specs
        ],
    )
    sim = simulate(specs, scheduler_factory(scheme, profiles), config)
    peak = config.dram.peak_apc
    samples = []
    for i, app in enumerate(apps):
        alone_apc, alone_ipc = alone_table[app.name]
        samples.append(
            {
                "app": app.name,
                "api": app.api,
                "demand_frac": app.demand_frac,
                "row_locality": app.row_locality,
                "bank_frac": app.bank_frac,
                "apc_alone": float(alone_apc),
                "ipc_alone": float(alone_ipc),
                "apc_shared": float(sim.apps[i].apc),
                "ipc_shared": float(sim.apps[i].ipc),
            }
        )
    return {
        "schema_version": SRUN_SCHEMA_VERSION,
        "scheme": scheme,
        "dram": config.dram.name,
        "peak_apc": float(peak),
        "n_apps": len(apps),
        "bus_utilization": float(sim.bus_utilization),
        "total_demand_frac": float(
            np.sum([a.demand_frac for a in apps], dtype=float)
        ),
        "samples": samples,
    }
