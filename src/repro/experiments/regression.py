"""Golden-number regression tracking.

The shape checks (scorecard) catch *qualitative* breakage; this module
catches *quantitative drift*: a simulator or calibration change that
keeps every winner in place but silently moves the measured numbers.
A baseline JSON (checked in at ``benchmarks/baseline.json``) records key
quantities from a reference run; ``compare`` re-measures them and flags
any value outside its tolerance band.

Tracked quantities (chosen to cover every subsystem):

* Figure 1 normalized values for all (scheme, metric) cells;
* Table III worst APKC error;
* the model-vs-sim card's hetero-5 error for the share-based schemes;
* the Figure 3 pinned IPCs;
* total utilized bandwidth under FCFS (channel-efficiency tracker).

Regenerate after an intentional change with::

    python -m repro.experiments regression --update
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.experiments import ablation, figure1, figure3, table3
from repro.experiments.runner import Runner
from repro.util.errors import ConfigurationError

__all__ = [
    "BASELINE_PATH",
    "points",
    "Drift",
    "collect",
    "save_baseline",
    "load_baseline",
    "compare",
    "render",
]

#: default location of the checked-in baseline (repo-root/benchmarks/)
BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "baseline.json"
)

#: key -> (absolute tolerance, relative tolerance); a value passes if it
#: is within EITHER band of the baseline
TOLERANCES: dict[str, tuple[float, float]] = {
    "figure1": (0.08, 0.10),
    "table3.worst_apkc_error": (0.03, 0.5),
    "model_vs_sim": (0.03, 0.5),
    "figure3.pinned_ipc": (0.05, 0.10),
    "fcfs.total_apc": (0.0004, 0.05),
}


def _tolerance_for(key: str) -> tuple[float, float]:
    for prefix, tol in TOLERANCES.items():
        if key.startswith(prefix):
            return tol
    return (0.05, 0.10)


def points(cfg_for):
    """The exhibits :func:`collect` re-runs, with the card on hetero-5
    (whose No_partitioning run also gives the FCFS bandwidth)."""
    fig1, _ = figure1.points(cfg_for)
    t3, _ = table3.points(cfg_for)
    fig3, fig3_residue = figure3.points(cfg_for)
    return fig1 + t3 + ablation.card_points(cfg_for(), ("hetero-5",)) + fig3, fig3_residue


def collect(runner: Runner) -> dict[str, float]:
    """Measure every tracked quantity with the given runner."""
    values: dict[str, float] = {}

    fig1 = figure1.run(runner)
    for scheme, row in fig1.normalized.items():
        for metric, v in row.items():
            values[f"figure1.{scheme}.{metric}"] = v

    t3 = table3.run(runner)
    values["table3.worst_apkc_error"] = t3.worst_apkc_error

    card = ablation.model_vs_sim(runner, ("hetero-5",))
    for scheme in ablation.SHARE_SCHEMES:
        values[f"model_vs_sim.{scheme}"] = card.errors("run_b", scheme)["hetero-5"]

    fig3 = figure3.run(runner)
    for mix in ("Mix-1", "Mix-2"):
        values[f"figure3.pinned_ipc.{mix}"] = fig3.row(
            mix, "wsp"
        ).qos_ipc_guaranteed

    nopart = runner.run("hetero-5", "nopart")
    values["fcfs.total_apc.hetero-5"] = nopart.sim.total_apc
    return values


def save_baseline(values: dict[str, float], path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")


def load_baseline(path: pathlib.Path) -> dict[str, float]:
    if not path.exists():
        raise ConfigurationError(
            f"no baseline at {path}; create one with "
            "`python -m repro.experiments regression --update`"
        )
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ConfigurationError(f"malformed baseline file {path}")
    return {str(k): float(v) for k, v in data.items()}


@dataclass(frozen=True)
class Drift:
    """One tracked quantity outside its tolerance band."""

    key: str
    baseline: float
    measured: float

    @property
    def delta(self) -> float:
        return self.measured - self.baseline


def compare(
    current: dict[str, float], baseline: dict[str, float]
) -> list[Drift]:
    """Out-of-band drifts plus keys missing on either side."""
    drifts: list[Drift] = []
    for key, base in baseline.items():
        if key not in current:
            drifts.append(Drift(key=key, baseline=base, measured=float("nan")))
            continue
        cur = current[key]
        atol, rtol = _tolerance_for(key)
        if abs(cur - base) <= atol or abs(cur - base) <= rtol * abs(base):
            continue
        drifts.append(Drift(key=key, baseline=base, measured=cur))
    for key in current:
        if key not in baseline:
            drifts.append(
                Drift(key=key, baseline=float("nan"), measured=current[key])
            )
    return drifts


def render(drifts: list[Drift], n_tracked: int) -> str:
    if not drifts:
        return f"regression check: all {n_tracked} tracked quantities in band"
    lines = [f"regression check: {len(drifts)} of {n_tracked} quantities drifted:"]
    for d in sorted(drifts, key=lambda d: d.key):
        lines.append(
            f"  {d.key:36s} baseline={d.baseline:.5f} "
            f"measured={d.measured:.5f} (delta {d.delta:+.5f})"
        )
    return "\n".join(lines)
