"""Non-stationary workload generators with ground-truth phase schedules.

The paper's online profiling (Sec. IV-C) only earns its keep when
application behaviour *changes*: "when an application's behavior
changes, its APC_alone will be updated correspondingly".  This module
manufactures exactly such workloads.  Each generator returns a
:class:`NonStationaryWorkload`: simulator :class:`~repro.sim.cpu.CoreSpec`
objects whose :class:`~repro.sim.cpu.CorePhase` lists realize the
behaviour changes, plus the *ground-truth* per-app phase schedule so a
phase oracle (:mod:`repro.control.oracle`) knows the true ``APC_alone``
at every cycle without profiling.

Four scenario families (ROADMAP item 2):

* **linear ramps** -- demand drifts from a start to an end intensity in
  small steps (piecewise-constant discretization of a linear ramp);
* **periodic phase alternation** -- apps flip between an A and a B
  operating point with a fixed period (optionally phase-offset);
* **correlated bursts** -- seeded random burst intervals during which a
  correlated subset of apps jumps to a high-intensity point together;
* **abrupt phase swaps** -- two apps exchange operating points at one
  cycle (the hardest tracking case: the workload-wide ranking inverts).

Ground truth: a phase's declared ``apc_alone`` is its *demand*
``api * ipc_peak`` clamped to the bus ceiling.  Generators keep phase
demand at or below ``max_intensity`` of the peak (default 60%), where
the limit-based core model standalone-achieves its demand to within a
few percent (deep MLP, no contention) -- this is what makes the
declared schedule a usable oracle and is verified against alone-mode
simulation in ``tests/workloads/test_nonstationary.py``.

Determinism: every stochastic choice draws from a named
:class:`~repro.util.rng.RngStream` derived from the scenario seed, so a
(name, seed) pair fully determines the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.sim.cpu import CorePhase, CoreSpec
from repro.sim.stream import StreamSpec
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.workloads.spec import mlp_for_apkc

__all__ = [
    "PhasePoint",
    "AppPhaseTrack",
    "NonStationaryWorkload",
    "ramp_workload",
    "alternating_workload",
    "bursty_workload",
    "phase_swap_workload",
    "SCENARIOS",
    "scenario",
]

#: generators keep per-phase demand at or below this fraction of the
#: peak bus APC so alone-mode runs achieve the declared operating point
DEFAULT_MAX_INTENSITY = 0.6


@dataclass(frozen=True)
class PhasePoint:
    """One ground-truth behaviour segment of one application.

    ``apc_alone`` is the truth the oracle uses; ``api``/``ipc_peak``
    are the core parameters realizing it (``apc_alone = api * ipc_peak``
    for unclamped phases).
    """

    start_cycle: float
    api: float
    ipc_peak: float
    apc_alone: float

    def __post_init__(self) -> None:
        if self.start_cycle < 0:
            raise ConfigurationError("phase start_cycle must be >= 0")
        for field_name in ("api", "ipc_peak", "apc_alone"):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"phase {field_name} must be positive")


def _point(start: float, api: float, ipc_peak: float, peak_apc: float) -> PhasePoint:
    demand = api * ipc_peak
    return PhasePoint(
        start_cycle=start,
        api=api,
        ipc_peak=ipc_peak,
        apc_alone=min(demand, peak_apc),
    )


@dataclass(frozen=True)
class AppPhaseTrack:
    """The full ground-truth schedule of one application."""

    name: str
    segments: tuple[PhasePoint, ...]
    mlp: int
    write_fraction: float = 0.1
    row_locality: float = 0.45

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError(f"track {self.name!r} has no segments")
        starts = [s.start_cycle for s in self.segments]
        if starts[0] != 0.0:
            raise ConfigurationError(
                f"track {self.name!r} must start its first segment at cycle 0"
            )
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigurationError(
                f"track {self.name!r} segments must be strictly sorted"
            )

    def at(self, cycle: float) -> PhasePoint:
        """The segment in effect at ``cycle``."""
        current = self.segments[0]
        for seg in self.segments[1:]:
            if cycle >= seg.start_cycle:
                current = seg
            else:
                break
        return current

    def change_cycles(self) -> tuple[float, ...]:
        """Cycles at which the true behaviour changes (excluding 0)."""
        return tuple(s.start_cycle for s in self.segments[1:])

    def core_spec(self) -> CoreSpec:
        """Simulator core spec realizing this schedule."""
        first = self.segments[0]
        return CoreSpec(
            name=self.name,
            api=first.api,
            ipc_peak=first.ipc_peak,
            mlp=self.mlp,
            write_fraction=self.write_fraction,
            stream=StreamSpec(row_locality=self.row_locality),
            phases=tuple(
                CorePhase(start_cycle=s.start_cycle, api=s.api, ipc_peak=s.ipc_peak)
                for s in self.segments
            ),
        )


@dataclass(frozen=True)
class NonStationaryWorkload:
    """A set of phase-changing applications plus their ground truth."""

    name: str
    tracks: tuple[AppPhaseTrack, ...]
    seed: int
    peak_apc: float
    #: cycle at which the declared schedule ends (run length)
    horizon_cycles: float

    def __post_init__(self) -> None:
        if not self.tracks:
            raise ConfigurationError(f"workload {self.name!r} has no tracks")
        if self.horizon_cycles <= 0:
            raise ConfigurationError("horizon_cycles must be positive")

    @property
    def n(self) -> int:
        return len(self.tracks)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tracks)

    def core_specs(self) -> list[CoreSpec]:
        return [t.core_spec() for t in self.tracks]

    def true_apc_alone(self, cycle: float) -> np.ndarray:
        """Ground-truth ``APC_alone`` vector at ``cycle``."""
        return np.array([t.at(cycle).apc_alone for t in self.tracks], dtype=float)

    def true_api(self, cycle: float) -> np.ndarray:
        """Ground-truth ``API`` vector at ``cycle``."""
        return np.array([t.at(cycle).api for t in self.tracks], dtype=float)

    def change_cycles(self) -> tuple[float, ...]:
        """Sorted union of every app's behaviour-change cycles."""
        cycles: set[float] = set()
        for t in self.tracks:
            cycles.update(t.change_cycles())
        return tuple(sorted(cycles))


# ----------------------------------------------------------------------
# generator helpers
# ----------------------------------------------------------------------
def _track(
    name: str,
    segments: Sequence[PhasePoint],
    *,
    peak_apc: float,
    write_fraction: float = 0.1,
    row_locality: float = 0.45,
) -> AppPhaseTrack:
    """Build a track, sizing MLP for the *most intense* segment.

    MLP must cover the deepest phase: a core that cannot keep enough
    misses outstanding in its high phase would fall short of the
    declared operating point, breaking the oracle's ground truth.
    """
    top_apkc = max(s.apc_alone for s in segments) * 1000.0
    # one class deeper than the stationary heuristic: phase transitions
    # briefly overshoot the steady-state queue depth
    mlp = max(mlp_for_apkc(top_apkc), 8)
    del peak_apc  # segments are already clamped by the caller
    return AppPhaseTrack(
        name=name,
        segments=tuple(segments),
        mlp=mlp,
        write_fraction=write_fraction,
        row_locality=row_locality,
    )


def _check_intensity(
    demands: Sequence[float], peak_apc: float, max_intensity: float
) -> None:
    top = max(demands)
    if top > peak_apc * max_intensity + 1e-12:
        raise ConfigurationError(
            f"phase demand {top:g} exceeds {max_intensity:.0%} of the peak "
            f"APC {peak_apc:g}; the alone-mode ground truth would not be "
            "achievable (lower the intensity or raise max_intensity)"
        )


# ----------------------------------------------------------------------
# scenario generators
# ----------------------------------------------------------------------
def ramp_workload(
    *,
    n_apps: int = 4,
    horizon_cycles: float = 1_200_000.0,
    steps: int = 6,
    lo_frac: float = 0.08,
    hi_frac: float = 0.45,
    api: float = 0.02,
    seed: int = 2013,
    peak_apc: float = 0.01,
    max_intensity: float = DEFAULT_MAX_INTENSITY,
) -> NonStationaryWorkload:
    """Linear intensity ramps, discretized into ``steps`` segments.

    Odd-indexed apps ramp *down* while even-indexed apps ramp up, so
    the workload-wide share ordering drifts continuously -- the
    slow-change regime where smoothing helps and change-point
    detection should stay quiet.
    """
    if steps < 2:
        raise ConfigurationError("ramp needs at least 2 steps")
    rng = RngStream(seed, "nonstat.ramp")
    lo, hi = lo_frac * peak_apc, hi_frac * peak_apc
    _check_intensity([hi], peak_apc, max_intensity)
    step_len = horizon_cycles / steps
    tracks = []
    for i in range(n_apps):
        # jitter the endpoints so apps are not copies of each other
        jitter = 1.0 + 0.1 * (rng.random() - 0.5)
        a, b = (lo * jitter, hi * jitter) if i % 2 == 0 else (hi * jitter, lo * jitter)
        segs = []
        for k in range(steps):
            demand = a + (b - a) * k / (steps - 1)
            segs.append(_point(k * step_len, api, demand / api, peak_apc))
        tracks.append(_track(f"ramp{i}", segs, peak_apc=peak_apc))
    return NonStationaryWorkload(
        name="ramp",
        tracks=tuple(tracks),
        seed=seed,
        peak_apc=peak_apc,
        horizon_cycles=horizon_cycles,
    )


def alternating_workload(
    *,
    n_apps: int = 4,
    horizon_cycles: float = 1_200_000.0,
    period_cycles: float = 300_000.0,
    lo_frac: float = 0.08,
    hi_frac: float = 0.45,
    api: float = 0.02,
    stagger: bool = True,
    seed: int = 2013,
    peak_apc: float = 0.01,
    max_intensity: float = DEFAULT_MAX_INTENSITY,
) -> NonStationaryWorkload:
    """Periodic A/B phase alternation with optional per-app stagger.

    With ``stagger`` each app flips half a period after its neighbour,
    so *some* app changes phase every half period -- a steady drumbeat
    of change points at known cycles.
    """
    if period_cycles <= 0 or period_cycles > horizon_cycles:
        raise ConfigurationError("period must be positive and fit the horizon")
    lo, hi = lo_frac * peak_apc, hi_frac * peak_apc
    _check_intensity([hi], peak_apc, max_intensity)
    half = period_cycles / 2.0
    tracks = []
    for i in range(n_apps):
        offset = half * (i % 2) if stagger else 0.0
        boundaries = [0.0]
        t = offset if offset > 0 else half
        while t < horizon_cycles:
            boundaries.append(t)
            t += half
        segs = []
        high_first = i % 2 == 0
        for k, start in enumerate(boundaries):
            demand = hi if (k % 2 == 0) == high_first else lo
            segs.append(_point(start, api, demand / api, peak_apc))
        tracks.append(_track(f"alt{i}", segs, peak_apc=peak_apc))
    return NonStationaryWorkload(
        name="alternating",
        tracks=tuple(tracks),
        seed=seed,
        peak_apc=peak_apc,
        horizon_cycles=horizon_cycles,
    )


def bursty_workload(
    *,
    n_apps: int = 4,
    horizon_cycles: float = 1_200_000.0,
    n_bursts: int = 3,
    burst_cycles: float = 150_000.0,
    burst_apps: int = 2,
    lo_frac: float = 0.08,
    hi_frac: float = 0.45,
    api: float = 0.02,
    seed: int = 2013,
    peak_apc: float = 0.01,
    max_intensity: float = DEFAULT_MAX_INTENSITY,
) -> NonStationaryWorkload:
    """Correlated bursts: a fixed subset of apps spikes *together*.

    Burst start cycles are drawn from the seeded stream (sorted,
    non-overlapping by construction); the first ``burst_apps`` apps
    carry the bursts while the rest stay at the baseline -- the
    correlated-interference case where a per-app-independent model of
    change would mispredict.
    """
    if not (0 < burst_apps <= n_apps):
        raise ConfigurationError("burst_apps must be in [1, n_apps]")
    if n_bursts < 1:
        raise ConfigurationError("need at least one burst")
    span = horizon_cycles / n_bursts
    if burst_cycles >= span:
        raise ConfigurationError("bursts would overlap; shorten burst_cycles")
    rng = RngStream(seed, "nonstat.bursts")
    lo, hi = lo_frac * peak_apc, hi_frac * peak_apc
    _check_intensity([hi], peak_apc, max_intensity)
    # one burst per span, uniformly placed inside its span
    starts = [
        k * span + rng.uniform(0.0, span - burst_cycles) for k in range(n_bursts)
    ]
    tracks = []
    for i in range(n_apps):
        if i < burst_apps:
            segs = [_point(0.0, api, lo / api, peak_apc)]
            for s in starts:
                if s > 0:
                    segs.append(_point(s, api, hi / api, peak_apc))
                else:  # a burst drawn exactly at cycle 0 replaces the head
                    segs[0] = _point(0.0, api, hi / api, peak_apc)
                segs.append(_point(s + burst_cycles, api, lo / api, peak_apc))
        else:
            mid = 0.5 * (lo + hi)
            segs = [_point(0.0, api, mid / api, peak_apc)]
        tracks.append(_track(f"burst{i}", segs, peak_apc=peak_apc))
    return NonStationaryWorkload(
        name="bursty",
        tracks=tuple(tracks),
        seed=seed,
        peak_apc=peak_apc,
        horizon_cycles=horizon_cycles,
    )


def phase_swap_workload(
    *,
    n_apps: int = 4,
    horizon_cycles: float = 1_200_000.0,
    swap_cycle: float = 600_000.0,
    lo_frac: float = 0.08,
    hi_frac: float = 0.45,
    api: float = 0.02,
    seed: int = 2013,
    peak_apc: float = 0.01,
    max_intensity: float = DEFAULT_MAX_INTENSITY,
) -> NonStationaryWorkload:
    """Abrupt swap: at ``swap_cycle`` every app jumps to the opposite
    intensity class (high <-> low), inverting the share ranking in one
    cycle.

    This is the convergence-lag benchmark scenario: a controller that
    keeps smoothing over the old phase takes many epochs to cross the
    ranking inversion, while change-point detection plus a shortened
    profiling window re-converges in <= 3 epochs (the CI gate).
    """
    if not (0 < swap_cycle < horizon_cycles):
        raise ConfigurationError("swap_cycle must lie inside the horizon")
    lo, hi = lo_frac * peak_apc, hi_frac * peak_apc
    _check_intensity([hi], peak_apc, max_intensity)
    tracks = []
    for i in range(n_apps):
        a, b = (hi, lo) if i % 2 == 0 else (lo, hi)
        segs = [
            _point(0.0, api, a / api, peak_apc),
            _point(swap_cycle, api, b / api, peak_apc),
        ]
        tracks.append(_track(f"swap{i}", segs, peak_apc=peak_apc))
    return NonStationaryWorkload(
        name="phase-swap",
        tracks=tuple(tracks),
        seed=seed,
        peak_apc=peak_apc,
        horizon_cycles=horizon_cycles,
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
ScenarioFactory = Callable[..., NonStationaryWorkload]

SCENARIOS: dict[str, ScenarioFactory] = {
    "ramp": ramp_workload,
    "alternating": alternating_workload,
    "bursty": bursty_workload,
    "phase-swap": phase_swap_workload,
}


def scenario(name: str, **overrides: object) -> NonStationaryWorkload:
    """Instantiate a named scenario with keyword overrides."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    return factory(**overrides)  # type: ignore[arg-type]
