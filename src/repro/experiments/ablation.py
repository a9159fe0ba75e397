"""Ablation studies for the design choices called out in DESIGN.md.

* ``model_vs_sim`` -- the report card: four predictors of each app's
  shared APC scored against the simulator with one error
  (:func:`repro.core.metrics.apc_error`) on every run of Figure 2, the
  model-validation claim behind the whole paper;
* ``enforcement`` -- the paper's arrival-free start-time tags
  (Sec. IV-B) versus the original arrival-coupled DSTF rule;
* ``profiler`` -- online APC_alone estimation (Sec. IV-C) under the two
  interference-counting modes;
* ``priority_enforcement`` -- strict priority versus the same knapsack
  allocation as start-time-fair shares ("a special form of
  partitioning");
* ``online_vs_static`` -- fully-online operation (Sec. IV-C profiling,
  no alone-run oracle) versus the static alone-run-profiled partition;
* ``channel_scaling`` -- doubling bandwidth by bus frequency (the
  paper's Sec. VI-C method) versus by channel count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.control import EMASmoother, EpochController, ProfileTracker, RelativeShiftDetector
from repro.core.knapsack import solve_fractional_knapsack
from repro.core.metrics import apc_error, metric_by_name
from repro.core.model import AnalyticalModel
from repro.core.partitioning import default_schemes, scheme_by_name
from repro.experiments.figure2 import OPTIMAL_FOR
from repro.experiments.predicted import UTILIZED_BANDWIDTH
from repro.experiments.report import format_table
from repro.experiments.runner import ALL_SCHEME_NAMES, NOPART, Runner, scheduler_factory
from repro.sim.dram.config import DRAMConfig, ddr2_800
from repro.sim.engine import SimConfig, simulate
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.workloads.mixes import HETERO_MIXES, HOMO_MIXES, mix_core_specs, mix_paper_workload

__all__ = [
    "ModelVsSimCard",
    "model_vs_sim",
    "EnforcementResult",
    "enforcement_ablation",
    "ProfilerResult",
    "profiler_ablation",
    "PriorityEnforcementResult",
    "priority_enforcement_ablation",
    "OnlineVsStaticResult",
    "online_vs_static_ablation",
    "ChannelScalingResult",
    "channel_scaling_ablation",
    "render_model_vs_sim",
]


# -- 1. the model-vs-simulator card --
#: the card's predictors of per-app APC, in report order: the model at
#: measured profiles and the run's own utilized total (an oracle B), the
#: same at the DRAM's peak, the model-only grid's Table III profiles, and
#: the Sec. IV-C online APC_alone estimate against the alone-run profile
PREDICTORS: dict[str, str] = {
    "run_b": "(a) model @ run's B",
    "peak_b": "(b) model @ peak B",
    "table3": f"(c) Table III @ {UTILIZED_BANDWIDTH:g}",
    "profiler": "(d) profiler APC_alone",
}

#: the schemes Sec. III solves in closed form for a share vector
SHARE_SCHEMES: tuple[str, ...] = ("equal", "prop", "sqrt", "twothirds")


@dataclass(frozen=True)
class ModelVsSimCard:
    """Per-app APC predictions beside the simulator's, per run."""

    config: SimConfig
    mixes: tuple[str, ...]
    #: {(predictor, mix, scheme): (predicted, simulated) APC vectors};
    #: for "profiler" the pair is (online estimate, alone-run APC_alone)
    apc: dict[tuple[str, str, str], tuple[np.ndarray, np.ndarray]]

    def errors(self, predictor: str, scheme: str) -> dict[str, float]:
        """{mix: apc_error} over the card's mixes ``predictor`` scores."""
        return {
            mix: apc_error(*self.apc[predictor, mix, scheme])
            for mix in self.mixes
            if (predictor, mix, scheme) in self.apc
        }


def median_max(errors: dict[str, float]) -> str:
    """``"median / max"`` of a card's errors in percent, or ``"-"``."""
    e = list(errors.values())
    return f"{np.median(e) * 100:.2f} / {max(e) * 100:.2f}" if e else "-"


def model_vs_sim(
    runner: Runner, mixes: tuple[str, ...] = HOMO_MIXES + HETERO_MIXES
) -> ModelVsSimCard:
    """Score every predictor on every scheme's run of ``mixes``."""
    peak = runner.sim_config.dram.peak_apc
    apc: dict[tuple[str, str, str], tuple[np.ndarray, np.ndarray]] = {}
    for mix in mixes:
        profiles = runner.profiles(mix_core_specs(mix))
        paper = mix_paper_workload(mix)
        for name in ALL_SCHEME_NAMES:
            sim = runner.run(mix, name).sim
            scheme = scheme_by_name(name)
            models = {
                # Eq. 2: the utilized total does not depend on the scheme
                "run_b": AnalyticalModel(profiles, sim.total_apc),
                "peak_b": AnalyticalModel(profiles, peak),
            }
            if name != NOPART:  # the predicted exhibit has no No_partitioning
                models["table3"] = AnalyticalModel(paper, UTILIZED_BANDWIDTH)
            for key, model in models.items():
                pred = model.operating_point(scheme).apc_shared
                apc[key, mix, name] = (pred, sim.apc_shared)
            apc["profiler", mix, name] = (sim.apc_alone_est, profiles.apc_alone)
    return ModelVsSimCard(config=runner.sim_config, mixes=tuple(mixes), apc=apc)


def render_model_vs_sim(card: ModelVsSimCard) -> str:
    rows = [
        [scheme] + [median_max(card.errors(key, scheme)) for key in PREDICTORS]
        for scheme in ALL_SCHEME_NAMES
    ]
    cfg = card.config
    title = (
        "Model vs simulator: sum|pred - sim| / sum sim per run, "
        f"median / max % over {len(card.mixes)} mixes\n"
        f"({cfg.dram.name}, {cfg.warmup_cycles:.0f} + {cfg.measure_cycles:.0f} "
        f"cycles, seed {cfg.seed})"
    )
    return format_table(["scheme", *PREDICTORS.values()], rows, title=title)


# -- 2. enforcement-mechanism ablation (Sec. IV-B modification) --
@dataclass(frozen=True)
class EnforcementResult:
    mix: str
    app: str
    target_share: float
    share_arrival_free: float
    share_arrival_coupled: float


def enforcement_ablation(
    runner: Runner, mix: str = "hetero-5", app: str = "gobmk"
) -> EnforcementResult:
    """Compare share attainment of a low-intensity app under both tag rules.

    Equal shares are enforced; the low-intensity app's *demand* is below
    1/N, so its attained share should equal its demand fraction under
    the paper's arrival-free tags.  The arrival-coupled rule forfeits
    idle credit, so the app attains less whenever it bursts.
    """
    specs = mix_core_specs(mix)
    idx = [s.name for s in specs].index(app)
    n = len(specs)
    beta = np.full(n, 1.0 / n)

    # arrival-free tags at 1/n shares are the planned Equal run
    free = runner.run(mix, "equal").sim
    coupled = simulate(
        specs,
        lambda m: StartTimeFairScheduler(m, beta, arrival_coupled=True),
        runner.sim_config,
    )
    demand = runner.alone_point(specs[idx])[0]
    target = min(1.0 / n, demand / free.total_apc)
    return EnforcementResult(
        mix=mix,
        app=app,
        target_share=float(target),
        share_arrival_free=float(free.apc_shared[idx] / free.total_apc),
        share_arrival_coupled=float(coupled.apc_shared[idx] / coupled.total_apc),
    )


# -- 3. profiler-accuracy ablation (Sec. IV-C) --
@dataclass(frozen=True)
class ProfilerResult:
    mix: str
    scheme: str
    #: {mode: apc_error of the estimate against the alone-run APC_alone}
    errors: dict[str, float]


def profiler_ablation(
    runner: Runner,
    card: ModelVsSimCard,
    mix: str = "hetero-5",
    scheme: str = "equal",
) -> ProfilerResult:
    """Estimation error of online APC_alone under both counting modes.

    The runner's own mode is the card's row (d) for this run; only the
    other mode is simulated.
    """
    own = runner.sim_config.interference_mode
    other = "pending" if own == "stalled" else "stalled"
    specs = mix_core_specs(mix)
    cfg = replace(runner.sim_config, interference_mode=other)
    sim = simulate(specs, scheduler_factory(scheme, runner.profiles(specs)), cfg)
    true_alone = card.apc["profiler", mix, scheme][1]
    errors = {
        own: card.errors("profiler", scheme)[mix],
        other: apc_error(sim.apc_alone_est, true_alone),
    }
    return ProfilerResult(mix=mix, scheme=scheme, errors=errors)


# -- 4. priority enforcement: strict scheduler vs knapsack-as-shares --
@dataclass(frozen=True)
class PriorityEnforcementResult:
    mix: str
    #: weighted speedup under each enforcement of the same allocation
    wsp_strict: float
    wsp_shares: float
    #: measured APC vectors
    apc_strict: np.ndarray
    apc_shares: np.ndarray


def priority_enforcement_ablation(
    runner: Runner, mix: str = "hetero-5"
) -> PriorityEnforcementResult:
    """Enforce Priority_APC strictly vs via start-time-fair shares."""
    specs = mix_core_specs(mix)
    strict_run = runner.run(mix, "prio_apc")
    apc_alone = strict_run.apc_alone

    # the paper's "special form of partitioning": knapsack quantities as shares
    n = len(specs)
    sol = solve_fractional_knapsack(
        1.0 / (n * apc_alone), apc_alone, strict_run.sim.total_apc
    )
    q = sol.quantities
    beta = q / q.sum() if q.sum() > 0 else np.full(n, 1.0 / n)
    shares_sim = simulate(
        specs, lambda m: StartTimeFairScheduler(m, beta), runner.sim_config
    )
    return PriorityEnforcementResult(
        mix=mix,
        wsp_strict=strict_run.metrics["wsp"],
        wsp_shares=metric_by_name("wsp")(shares_sim.ipc_shared, strict_run.ipc_alone),
        apc_strict=strict_run.sim.apc_shared,
        apc_shares=shares_sim.apc_shared,
    )


# -- 5. fully-online operation vs static alone-run profiling (Sec. IV-C) --
@dataclass(frozen=True)
class OnlineVsStaticResult:
    mix: str
    scheme: str
    metric: str
    value_static: float
    value_online: float
    #: final online share vector vs the static one
    beta_static: np.ndarray
    beta_online: np.ndarray

    @property
    def relative_gap(self) -> float:
        """Online metric as a fraction of the static-profile metric."""
        if self.value_static <= 0:
            return float("nan")
        return self.value_online / self.value_static


def online_vs_static_ablation(
    runner: Runner,
    mix: str = "hetero-5",
    scheme_name: str = "sqrt",
    *,
    epoch_cycles: float = 50_000.0,
) -> OnlineVsStaticResult:
    """Run one scheme fully online (start at Equal shares; re-partition
    every epoch from the Sec. IV-C counters) and compare against the
    static alone-run-profiled partition on the scheme's own metric."""
    metric_name = next(
        (m for m, s in OPTIMAL_FOR.items() if s == scheme_name), "hsp"
    )
    specs = mix_core_specs(mix)
    static_run = runner.run(mix, scheme_name)
    scheme = default_schemes()[scheme_name]

    cfg = replace(runner.sim_config, epoch_cycles=epoch_cycles)
    n = len(specs)
    # fixed epochs, raw estimates: no smoothing, no change detection
    ctrl = EpochController(
        scheme,
        [s.api for s in specs],
        bandwidth=cfg.dram.peak_apc,
        epoch_cycles=cfg.epoch_cycles,
        names=[s.name for s in specs],
        tracker=ProfileTracker(
            n,
            smoother=EMASmoother(alpha=1.0),
            detector=RelativeShiftDetector(float("inf")),
        ),
    )
    online_sim = simulate(
        specs,
        lambda m: StartTimeFairScheduler(m, np.full(m, 1.0 / m)),
        cfg,
        repartition_hook=ctrl,
    )
    beta_online = (
        ctrl.latest_beta if ctrl.latest_beta is not None else np.full(n, 1.0 / n)
    )
    return OnlineVsStaticResult(
        mix=mix,
        scheme=scheme_name,
        metric=metric_name,
        value_static=static_run.metrics[metric_name],
        value_online=metric_by_name(metric_name)(
            online_sim.ipc_shared, static_run.ipc_alone
        ),
        beta_static=scheme.beta(runner.profiles(specs)),
        beta_online=beta_online,
    )


# -- 6. bandwidth-scaling mode: faster bus vs a second channel --
@dataclass(frozen=True)
class ChannelScalingResult:
    """6.4 GB/s reached two ways: 2x bus frequency vs 2 channels."""

    mix: str
    total_apc_fast_bus: float
    total_apc_two_channels: float
    #: per-app APC under each mode (FCFS)
    apc_fast_bus: np.ndarray
    apc_two_channels: np.ndarray

    @property
    def throughput_ratio(self) -> float:
        return self.total_apc_two_channels / self.total_apc_fast_bus


def channel_scaling_ablation(
    runner: Runner, mix: str = "hetero-6"
) -> ChannelScalingResult:
    """Double the bandwidth by bus frequency (the paper's Sec. VI-C
    method) and by channel count; compare the delivered bandwidth and
    its distribution.  Equivalence here justifies the paper's choice of
    frequency scaling as a stand-in for any capacity doubling.
    """
    specs = mix_core_specs(mix)
    fast_cfg = replace(runner.sim_config, dram=ddr2_800())
    two_cfg = replace(
        runner.sim_config,
        dram=DRAMConfig(name="2xDDR2-400", n_channels=2, n_ranks=4, n_banks=8),
    )
    fast = simulate(specs, lambda n: FCFSScheduler(n), fast_cfg)
    two = simulate(specs, lambda n: FCFSScheduler(n), two_cfg)
    return ChannelScalingResult(
        mix=mix,
        total_apc_fast_bus=fast.total_apc,
        total_apc_two_channels=two.total_apc,
        apc_fast_bus=fast.apc_shared,
        apc_two_channels=two.apc_shared,
    )
