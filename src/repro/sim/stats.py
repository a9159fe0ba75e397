"""Measurement-window statistics and simulation results.

The engine keeps *cumulative* per-app counters and snapshots them at the
warmup boundary and at the end of the run; a window value is the
difference of two snapshots (so warmup transients never pollute the
measurement, mirroring the paper's fast-forward + measure methodology,
Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.apps import AppProfile, Workload
from repro.util.errors import ConfigurationError

__all__ = ["AppCounters", "AppWindowResult", "SimResult"]


@dataclass(slots=True)
class AppCounters:
    """Cumulative per-app counters (monotone during a run)."""

    instructions: float = 0.0
    reads_served: int = 0
    writes_served: int = 0
    latency_sum: float = 0.0
    interference_cycles: float = 0.0

    def snapshot(self) -> "AppCounters":
        return AppCounters(
            instructions=self.instructions,
            reads_served=self.reads_served,
            writes_served=self.writes_served,
            latency_sum=self.latency_sum,
            interference_cycles=self.interference_cycles,
        )

    def minus(self, other: "AppCounters") -> "AppCounters":
        return AppCounters(
            instructions=self.instructions - other.instructions,
            reads_served=self.reads_served - other.reads_served,
            writes_served=self.writes_served - other.writes_served,
            latency_sum=self.latency_sum - other.latency_sum,
            interference_cycles=self.interference_cycles - other.interference_cycles,
        )


@dataclass(frozen=True)
class AppWindowResult:
    """Per-app measurements over the measurement window."""

    name: str
    instructions: float
    accesses: int
    reads: int
    writes: int
    window_cycles: float
    mean_latency: float
    interference_cycles: float
    apc_alone_est: float

    @property
    def apc(self) -> float:
        """Measured ``APC_shared`` -- accesses served per cycle."""
        return self.accesses / self.window_cycles

    @property
    def ipc(self) -> float:
        """Measured ``IPC_shared``."""
        return self.instructions / self.window_cycles

    @property
    def api_measured(self) -> float:
        """Measured accesses per instruction (should match the spec's
        ``api`` -- the model invariant)."""
        if self.instructions <= 0:
            return float("inf")
        return self.accesses / self.instructions

    @property
    def apkc(self) -> float:
        return self.apc * 1000.0

    @property
    def apki(self) -> float:
        return self.api_measured * 1000.0


@dataclass(frozen=True)
class SimResult:
    """Everything measured in one simulation run."""

    apps: tuple[AppWindowResult, ...]
    window_cycles: float
    bus_utilization: float
    row_hit_rate: float
    scheduler_name: str
    dram_name: str
    seed: int
    warmup_cycles: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.apps)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.apps)

    @property
    def apc_shared(self) -> np.ndarray:
        return np.array([a.apc for a in self.apps])

    @property
    def ipc_shared(self) -> np.ndarray:
        return np.array([a.ipc for a in self.apps])

    @property
    def total_apc(self) -> float:
        """Total utilized bandwidth ``B`` (Eq. 2, measured)."""
        return float(self.apc_shared.sum())

    @property
    def apc_alone_est(self) -> np.ndarray:
        """Online profiler estimates (Sec. IV-C)."""
        return np.array([a.apc_alone_est for a in self.apps])

    def speedups(self, ipc_alone: np.ndarray) -> np.ndarray:
        alone = np.asarray(ipc_alone, dtype=float)
        if alone.shape != (self.n,):
            raise ConfigurationError(
                f"ipc_alone must have shape ({self.n},), got {alone.shape}"
            )
        return self.ipc_shared / alone

    def estimated_profiles(self, api: np.ndarray | None = None) -> Workload:
        """Build model-level app profiles from the online estimates."""
        apis = (
            np.asarray(api, dtype=float)
            if api is not None
            else np.array([a.api_measured for a in self.apps])
        )
        apps = [
            AppProfile(a.name, api=float(apis[i]), apc_alone=float(a.apc_alone_est))
            for i, a in enumerate(self.apps)
        ]
        return Workload.of("estimated", apps)
