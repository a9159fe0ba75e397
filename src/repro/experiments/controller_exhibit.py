"""Closed-loop controller exhibit: tracking non-stationary workloads.

Runs the :class:`~repro.control.controller.EpochController` against
every non-stationary scenario family and scores it with the
phase-oracle evaluation (:mod:`repro.control.evaluate`): convergence
lag after each true change, time-weighted regret on Hsp/Wsp/MinF, and
tracking error of the online profile estimate (the ``track=`` column:
the mean over decisions of the estimate's ``apc_error`` against the
true profile).

The acceptance gates ride on the **phase-swap** scenario -- the
hardest tracking case, where the workload-wide share ranking inverts
in a single cycle:

* re-convergence in <= 3 epoch decisions (adaptive windowing), and
* regret vs. the omniscient phase oracle <= 5% on each of
  Hsp / Wsp / MinF.

The other scenarios (ramp, alternation, bursts) are reported as
diagnostics: their change points arrive faster than the convergence
window (alternation) or below the detection threshold by design
(ramp), so lag is not gated there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.evaluate import ControlEvalResult, evaluate_controller
from repro.core.partitioning import scheme_by_name
from repro.workloads.nonstationary import SCENARIOS, scenario

__all__ = ["ScenarioOutcome", "ControllerExhibitResult", "run", "render"]

#: gate: every phase-swap change point re-converged within this many epochs
MAX_CONVERGENCE_EPOCHS = 3
#: gate: phase-swap regret vs. the oracle, per metric
MAX_REGRET = 0.05
#: the scenario the gates apply to
GATED_SCENARIO = "phase-swap"

EXHIBIT_SEED = 3
EXHIBIT_SCHEME = "prop"
METRICS = ("hsp", "wsp", "minf")


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's closed-loop evaluation summary."""

    scenario: str
    scheme: str
    n_epochs: int
    n_changes_true: int
    n_changes_detected: int
    #: mean over decisions of the estimate's apc_error
    tracking_error: float
    regret: dict[str, float]
    max_lag: int | None
    gated: bool

    @property
    def passes(self) -> bool:
        if not self.gated:
            return True
        lag_ok = self.max_lag is not None and self.max_lag <= MAX_CONVERGENCE_EPOCHS
        regret_ok = all(v <= MAX_REGRET for v in self.regret.values())
        return lag_ok and regret_ok


@dataclass(frozen=True)
class ControllerExhibitResult:
    """Every scenario's outcome; gates ride on the phase swap."""

    outcomes: dict[str, ScenarioOutcome]

    @property
    def passing(self) -> bool:
        return bool(self.outcomes) and all(
            o.passes for o in self.outcomes.values()
        )


def _outcome(name: str, res: ControlEvalResult, gated: bool) -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario=name,
        scheme=res.scheme,
        n_epochs=len(res.decisions),
        n_changes_true=len(res.convergence),
        n_changes_detected=sum(1 for d in res.decisions if d.changed),
        tracking_error=res.tracking_error,
        regret=dict(res.regret),
        max_lag=res.max_lag,
        gated=gated,
    )


def run(quick: bool = False) -> ControllerExhibitResult:
    """Evaluate the controller on every non-stationary scenario."""
    # quick mode halves the horizon (and scales the swap/period/burst
    # structure with it) for smoke runs; the gates still apply
    horizon = 600_000.0 if quick else 1_200_000.0
    epoch = 100_000.0
    overrides: dict[str, dict[str, float]] = {
        "ramp": {"horizon_cycles": horizon},
        "alternating": {
            "horizon_cycles": horizon,
            "period_cycles": horizon / 4.0,
        },
        "bursty": {
            "horizon_cycles": horizon,
            "burst_cycles": horizon / 8.0,
        },
        "phase-swap": {
            "horizon_cycles": horizon,
            "swap_cycle": horizon / 2.0,
        },
    }
    scheme = scheme_by_name(EXHIBIT_SCHEME)
    outcomes: dict[str, ScenarioOutcome] = {}
    for name in sorted(SCENARIOS):
        wl = scenario(name, seed=EXHIBIT_SEED, **overrides.get(name, {}))
        res = evaluate_controller(
            wl,
            scheme,
            epoch_cycles=epoch,
            seed=EXHIBIT_SEED,
            metrics=METRICS,
        )
        outcomes[name] = _outcome(name, res, gated=name == GATED_SCENARIO)
    return ControllerExhibitResult(outcomes=outcomes)


def render(result: ControllerExhibitResult) -> str:
    lines = [
        "closed-loop controller vs phase oracle "
        f"(scheme={EXHIBIT_SCHEME}, metrics={'/'.join(METRICS)}):",
    ]
    for name in sorted(result.outcomes):
        o = result.outcomes[name]
        flag = "ok " if o.passes else "FAIL"
        lag = "-" if o.max_lag is None else str(o.max_lag)
        regret = " ".join(
            f"{m}={v * 100:+.1f}%" for m, v in sorted(o.regret.items())
        )
        gate = " [gated]" if o.gated else ""
        lines.append(
            f"  {flag} {o.scenario:12s} epochs={o.n_epochs:2d} "
            f"changes={o.n_changes_detected}/{o.n_changes_true} "
            f"lag={lag:>2s} track={o.tracking_error * 100:5.1f}% "
            f"regret[{regret}]{gate}"
        )
    lines.append(
        f"gate ({GATED_SCENARIO}): lag <= {MAX_CONVERGENCE_EPOCHS} epochs and "
        f"regret <= {MAX_REGRET * 100:g}% per metric -> "
        f"{'PASS' if result.passing else 'FAIL'}"
    )
    return "\n".join(lines)
