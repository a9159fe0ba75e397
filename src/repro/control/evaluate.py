"""Controller evaluation against the phase oracle.

Three quality measures, all defined against the *analytic* model at
the true (declared) profiles so that controller runs with different
schedulers/seeds stay comparable:

* **tracking error** -- the mean over decision epochs of the
  estimate's :func:`~repro.core.metrics.apc_error` against the ground
  truth (``sum|est - true| / sum true`` over the apps with an
  estimate);
* **regret** -- for each metric m, the time-weighted gap
  ``(m_oracle - m_controller) / m_oracle`` where both sides evaluate
  their share vector through :func:`capped_allocation` at the true
  per-segment profiles (Eq. 1: ``IPC = APC / API``).  The oracle
  re-solves at every phase change with zero lag, so regret is exactly
  the price of profiling latency + smoothing;
* **convergence lag** -- after each true change point, the number of
  epoch decisions until the controller's shares are within
  ``beta_tol`` (L1) of the oracle's post-change shares.  The default
  0.1 sits above the steady-state share-noise floor (~0.05 L1 from
  profiling noise on low-intensity apps) and far below the
  pre-convergence distance (>1.0 on a ranking inversion).

:func:`evaluate_controller` wires a full closed loop: non-stationary
workload -> engine with STF scheduler -> :class:`EpochController` hook
-> this evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.control.controller import EpochController, EpochDecision
from repro.control.oracle import PhaseOracle
from repro.core.bandwidth import capped_allocation
from repro.core.metrics import apc_error, metric_by_name
from repro.core.partitioning import PartitioningScheme
from repro.sim.engine import SimConfig, SimResult, simulate
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.util.errors import ConfigurationError
from repro.workloads.nonstationary import NonStationaryWorkload

__all__ = ["ConvergenceEvent", "ControlEvalResult", "evaluate_controller"]

DEFAULT_METRICS = ("hsp", "wsp", "minf")


@dataclass(frozen=True)
class ConvergenceEvent:
    """Re-convergence after one true change point."""

    change_cycle: float
    #: epoch decisions after the change until shares matched the
    #: oracle's post-change shares (None = never within the window)
    lag_epochs: int | None
    converged_cycle: float | None


@dataclass(frozen=True)
class ControlEvalResult:
    """Full evaluation of one controller run."""

    workload: str
    scheme: str
    decisions: tuple[EpochDecision, ...]
    #: mean over decision epochs of the estimate's apc_error
    #: (``sum|est - true| / sum true`` over the estimated apps)
    tracking_error: float
    #: metric name -> time-weighted relative gap to the oracle
    regret: dict[str, float]
    convergence: tuple[ConvergenceEvent, ...]
    sim: SimResult

    @property
    def max_lag(self) -> int | None:
        """Worst re-convergence lag (None if any change never converged)."""
        lags = [e.lag_epochs for e in self.convergence]
        if not lags:
            return 0
        if any(lag is None for lag in lags):
            return None
        return max(lag for lag in lags if lag is not None)

    def converged_within(self, epochs: int) -> bool:
        """True when every change point re-converged in <= ``epochs``."""
        lag = self.max_lag
        return lag is not None and lag <= epochs


def _metric_value(
    metric_name: str,
    beta: np.ndarray,
    true_apc: np.ndarray,
    true_api: np.ndarray,
    bandwidth: float,
) -> float:
    """Analytic metric of holding ``beta`` against the true profile."""
    alloc = capped_allocation(beta, bandwidth, true_apc)
    ipc_shared = alloc / true_api
    ipc_alone = true_apc / true_api
    return metric_by_name(metric_name).evaluate(ipc_shared, ipc_alone)


def _beta_timeline(
    decisions: Sequence[EpochDecision], n_apps: int
) -> list[tuple[float, np.ndarray]]:
    """(cycle, beta) steps; before the first solved epoch, equal shares."""
    timeline: list[tuple[float, np.ndarray]] = [
        (0.0, np.ones(n_apps) / n_apps)
    ]
    for d in decisions:
        if d.beta is not None:
            timeline.append((d.cycle, d.beta))
    return timeline


def _regret(
    workload: NonStationaryWorkload,
    oracle: PhaseOracle,
    decisions: Sequence[EpochDecision],
    metrics: Sequence[str],
    *,
    start_cycle: float,
    end_cycle: float,
) -> dict[str, float]:
    """Time-weighted controller-vs-oracle gap per metric.

    Segment boundaries are the union of share updates and true phase
    changes, so on every segment both the held shares and the true
    profile are constant and the analytic metric is exact.
    """
    timeline = _beta_timeline(decisions, workload.n)
    bounds = {start_cycle, end_cycle}
    bounds.update(c for c in workload.change_cycles() if start_cycle < c < end_cycle)
    bounds.update(c for c, _ in timeline if start_cycle < c < end_cycle)
    edges = sorted(bounds)

    ctrl_sum = {m: 0.0 for m in metrics}
    oracle_sum = {m: 0.0 for m in metrics}
    for a, b in zip(edges[:-1], edges[1:]):
        weight = b - a
        if weight <= 0:
            continue
        # shares held on [a, b): the last update at or before a
        beta = timeline[0][1]
        for cycle, value in timeline:
            if cycle <= a:
                beta = value
            else:
                break
        true_apc = workload.true_apc_alone(a)
        true_api = workload.true_api(a)
        oracle_beta = oracle.beta_at(a)
        for m in metrics:
            ctrl_sum[m] += weight * _metric_value(
                m, beta, true_apc, true_api, oracle.bandwidth
            )
            oracle_sum[m] += weight * _metric_value(
                m, oracle_beta, true_apc, true_api, oracle.bandwidth
            )
    out: dict[str, float] = {}
    for m in metrics:
        if oracle_sum[m] <= 0:
            raise ConfigurationError(f"oracle achieved non-positive {m}")
        out[m] = (oracle_sum[m] - ctrl_sum[m]) / oracle_sum[m]
    return out


def _convergence(
    workload: NonStationaryWorkload,
    oracle: PhaseOracle,
    decisions: Sequence[EpochDecision],
    *,
    beta_tol: float,
    end_cycle: float,
) -> tuple[ConvergenceEvent, ...]:
    """Per-change-point re-convergence lag (in epoch decisions)."""
    changes = [c for c in workload.change_cycles() if c < end_cycle]
    events: list[ConvergenceEvent] = []
    for idx, change in enumerate(changes):
        nxt = changes[idx + 1] if idx + 1 < len(changes) else end_cycle
        target = oracle.beta_at(change)
        lag: int | None = None
        converged_at: float | None = None
        count = 0
        for d in decisions:
            # a decision exactly at the change cycle closed a window
            # that is entirely pre-change; it cannot have seen the swap
            if d.cycle <= change:
                continue
            if d.cycle > nxt:
                break
            count += 1
            if d.beta is not None and float(
                np.abs(d.beta - target).sum()
            ) <= beta_tol:
                lag = count
                converged_at = d.cycle
                break
        events.append(
            ConvergenceEvent(
                change_cycle=change, lag_epochs=lag, converged_cycle=converged_at
            )
        )
    return tuple(events)


def _tracking_error(
    workload: NonStationaryWorkload, decisions: Sequence[EpochDecision]
) -> float:
    """Mean over decision epochs of the estimate's :func:`apc_error`
    against the truth, over each decision's apps with an estimate.

    Truth is sampled just *before* each close: the closed window lies
    entirely before the decision cycle, so a change landing exactly on
    an epoch boundary does not contaminate the comparison.
    """
    errors: list[float] = []
    for d in decisions:
        finite = ~np.isnan(d.estimate)
        if not np.any(finite):
            continue
        truth = workload.true_apc_alone(max(d.cycle - 1.0, 0.0))
        errors.append(apc_error(d.estimate[finite], truth[finite]))
    return float(np.mean(errors)) if errors else float("nan")


def evaluate_controller(
    workload: NonStationaryWorkload,
    scheme: PartitioningScheme,
    *,
    epoch_cycles: float = 100_000.0,
    fast_epoch_cycles: float | None = None,
    controller: EpochController | None = None,
    warmup_cycles: float = 100_000.0,
    seed: int = 1,
    metrics: Sequence[str] = DEFAULT_METRICS,
    beta_tol: float = 0.1,
    interference_mode: str = "stalled",
) -> ControlEvalResult:
    """Run the closed loop on ``workload`` and score it vs. the oracle.

    A pre-built ``controller`` overrides the default construction
    (used by the benchmark to compare tracker configurations); it must
    target the same scheme and app count.
    """
    specs = workload.core_specs()
    measure = workload.horizon_cycles - warmup_cycles
    if measure <= 0:
        raise ConfigurationError("warmup_cycles must be below the horizon")
    if controller is None:
        controller = EpochController(
            scheme,
            workload.true_api(0.0),
            bandwidth=workload.peak_apc,
            epoch_cycles=epoch_cycles,
            fast_epoch_cycles=fast_epoch_cycles,
            names=workload.names,
        )
    config = SimConfig(
        warmup_cycles=warmup_cycles,
        measure_cycles=measure,
        seed=seed,
        epoch_cycles=epoch_cycles,
        interference_mode=interference_mode,
    )
    sim = simulate(
        specs,
        lambda n_apps: StartTimeFairScheduler(n_apps, np.ones(n_apps) / n_apps),
        config,
        repartition_hook=controller,
    )
    oracle = PhaseOracle(workload, scheme)
    decisions = tuple(controller.decisions)
    end = workload.horizon_cycles
    return ControlEvalResult(
        workload=workload.name,
        scheme=scheme.name,
        decisions=decisions,
        tracking_error=_tracking_error(workload, decisions),
        regret=_regret(
            workload,
            oracle,
            decisions,
            list(metrics),
            start_cycle=0.0,
            end_cycle=end,
        ),
        convergence=_convergence(
            workload, oracle, decisions, beta_tol=beta_tol, end_cycle=end
        ),
        sim=sim,
    )
