"""Bounded-window per-request simulation: the serving fallback path.

When a request asks for ``profile: "sim"`` -- or asks for the
surrogate while no valid artifact is loadable -- the service answers
with a short cycle-level simulation instead of erroring.  The request
is mapped onto the canonical DRAM exactly like a training sweep point:

* each app becomes a synthetic :class:`~repro.surrogate.space.SurrogateApp`
  at ``demand_frac = apc_alone / bandwidth`` (the Eq. 2 machinery is
  homogeneous of degree one in bandwidth, so simulating at the
  canonical peak and rescaling by ``bandwidth / peak`` is exact in the
  fluid limit and is the same normalization the surrogate trains on);
* the scheme's enforcement scheduler is built from the *claimed*
  ``apc_alone`` -- the request's numbers are the service's ground
  truth, matching the closed-form path, so no per-app alone profiling
  runs are needed;
* the windows are a fraction of the training windows
  (:data:`SIM_PATH_CONFIG`): long enough that the answer is within
  sampling noise of a full run, short enough that the fallback stays
  interactive.  This bounded run is also the latency baseline the
  surrogate's speedup is measured against (``benchmarks/bench_service.py
  --profile surrogate`` and the ``/metrics`` ``speedup_vs_sim`` field).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.apps import AppProfile, Workload
from repro.sim.engine import SimConfig, simulate
from repro.surrogate.space import SurrogateApp
from repro.util.errors import ConfigurationError

__all__ = ["SIM_PATH_CONFIG", "simulate_partition_request"]

#: neutral accesses-per-instruction used when a request carries no api
#: vector (api only matters for IPC bookkeeping and prio_api ordering,
#: both of which require the vector anyway)
_NEUTRAL_API = 0.01

#: stream shape assumed for request apps (requests carry no locality
#: hints; this is the canonical training mix)
_REQUEST_ROW_LOCALITY = 0.45

#: the fallback's simulation windows: 5x shorter than the training
#: sweep's, bounded so a sim-path request stays interactive
SIM_PATH_CONFIG = SimConfig(
    warmup_cycles=20_000.0, measure_cycles=100_000.0, seed=7
)


def simulate_partition_request(
    scheme: str,
    apc_alone: Sequence[float],
    bandwidth: float,
    *,
    api: Sequence[float] | None = None,
    work_conserving: bool = True,
    config: SimConfig | None = None,
) -> np.ndarray:
    """Simulated shared-mode APC for one request, in request units.

    Deterministic (seeded windows), so repeated identical requests are
    cache-coherent with each other.  ``work_conserving`` is accepted
    for signature parity with the closed-form solvers but must be
    True: the cycle-level bus never idles on backlog, which is why the
    service rejects non-work-conserving requests for the sim-backed
    profiles at parse time.
    """
    from repro.experiments.runner import scheduler_factory

    if not work_conserving:
        raise ConfigurationError(
            "the cycle-level simulation path is work-conserving only"
        )
    if config is None:
        config = SIM_PATH_CONFIG
    demands = np.asarray(apc_alone, dtype=float)
    if demands.ndim != 1 or demands.size == 0:
        raise ConfigurationError("apc_alone must be a non-empty vector")
    if bandwidth <= 0:
        raise ConfigurationError("bandwidth must be > 0")
    apis = (
        np.full(demands.shape, _NEUTRAL_API)
        if api is None
        else np.asarray(api, dtype=float)
    )
    if apis.shape != demands.shape:
        raise ConfigurationError("api must match apc_alone in length")

    peak = config.dram.peak_apc
    scale = peak / bandwidth
    apps = [
        SurrogateApp(
            api=float(apis[i]),
            demand_frac=float(demands[i] / bandwidth),
            row_locality=_REQUEST_ROW_LOCALITY,
            bank_frac=1.0,
        )
        for i in range(demands.size)
    ]
    specs = [
        replace(app.core_spec(config.dram), name=f"req{i}")
        for i, app in enumerate(apps)
    ]
    # enforcement sees the *claimed* alone-mode numbers, scaled into
    # simulator units -- shares/priorities are scale-invariant
    profiles = Workload.of(
        "request",
        [
            AppProfile(
                spec.name,
                api=float(apis[i]),
                apc_alone=float(demands[i] * scale),
            )
            for i, spec in enumerate(specs)
        ],
    )
    sim = simulate(specs, scheduler_factory(scheme, profiles), config)
    return np.array([a.apc for a in sim.apps], dtype=float) / scale
