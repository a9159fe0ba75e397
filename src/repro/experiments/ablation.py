"""Ablation studies for the design choices called out in DESIGN.md.

Four ablations:

``model_vs_sim``
    The analytical model's predicted per-app APC/metrics versus the
    simulator's measurements for every scheme -- the model-validation
    claim behind the whole paper.
``enforcement``
    The paper's arrival-free start-time tags (Sec. IV-B) versus the
    original arrival-coupled DSTF rule: the modification is what lets a
    low-intensity application actually attain its share.
``profiler``
    Online APC_alone estimation accuracy (Sec. IV-C) under the two
    interference-counting modes.
``priority_enforcement``
    Strict-priority scheduling versus enforcing the same knapsack
    allocation through start-time-fair shares (the paper calls priority
    "a special form of partitioning").
``online_vs_static``
    Fully-online operation (periodic Sec. IV-C profiling driving share
    updates, no alone-run oracle) versus the static alone-run-profiled
    partition: the metric gap is the price of online estimation.
``channel_scaling``
    Doubling bandwidth by bus frequency (the paper's Sec. VI-C method)
    versus by channel count -- equivalence justifies frequency scaling
    as a stand-in for any capacity doubling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.knapsack import solve_fractional_knapsack
from repro.core.metrics import ALL_METRICS
from repro.core.model import AnalyticalModel
from repro.core.partitioning import default_schemes
from repro.experiments.report import format_table
from repro.experiments.runner import Runner, scheduler_factory
from repro.sim.engine import simulate
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.workloads.mixes import mix_core_specs

__all__ = [
    "ModelVsSimResult",
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


# ----------------------------------------------------------------------
# 1. analytical model vs simulator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelVsSimResult:
    mix: str
    #: {scheme: (predicted APC vector, measured APC vector)}
    apc: dict[str, tuple[np.ndarray, np.ndarray]]
    #: {scheme: {metric: (predicted, measured)}}
    metrics: dict[str, dict[str, tuple[float, float]]]

    def apc_error(self, scheme: str) -> float:
        """Mean relative APC prediction error across apps."""
        pred, meas = self.apc[scheme]
        return float(np.mean(np.abs(pred - meas) / np.maximum(meas, 1e-12)))

    @property
    def worst_apc_error(self) -> float:
        return max(self.apc_error(s) for s in self.apc)


def model_vs_sim(runner: Runner, mix: str) -> ModelVsSimResult:
    """Predict every scheme's operating point and compare to simulation."""
    specs = mix_core_specs(mix)
    profiles = runner.profiles(specs)
    apc_table: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    metric_table: dict[str, dict[str, tuple[float, float]]] = {}
    for name, scheme in default_schemes().items():
        run = runner.run(mix, name)
        # the model's B is the *utilized* bandwidth of this run (Eq. 2)
        model = AnalyticalModel(profiles, run.sim.total_apc)
        op = model.operating_point(scheme)
        apc_table[name] = (op.apc_shared, run.sim.apc_shared)
        metric_table[name] = {
            m.name: (
                m(op.ipc_shared, profiles.ipc_alone),
                m(run.sim.ipc_shared, run.ipc_alone),
            )
            for m in ALL_METRICS
        }
    return ModelVsSimResult(mix=mix, apc=apc_table, metrics=metric_table)


def render_model_vs_sim(result: ModelVsSimResult) -> str:
    headers = ["scheme", "mean APC err", "hsp pred/meas", "wsp pred/meas"]
    rows = []
    for scheme in result.apc:
        hsp_p, hsp_m = result.metrics[scheme]["hsp"]
        wsp_p, wsp_m = result.metrics[scheme]["wsp"]
        rows.append(
            [
                scheme,
                f"{result.apc_error(scheme) * 100:.1f}%",
                f"{hsp_p:.3f}/{hsp_m:.3f}",
                f"{wsp_p:.3f}/{wsp_m:.3f}",
            ]
        )
    return format_table(
        headers, rows, title=f"Model vs simulator ({result.mix})"
    )


# ----------------------------------------------------------------------
# 2. enforcement-mechanism ablation (Sec. IV-B modification)
# ----------------------------------------------------------------------
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

    free = simulate(
        specs, lambda m: StartTimeFairScheduler(m, beta), runner.sim_config
    )
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


# ----------------------------------------------------------------------
# 3. profiler-accuracy ablation (Sec. IV-C)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfilerResult:
    mix: str
    scheme: str
    #: {mode: mean relative |estimate - true| across apps}
    errors: dict[str, float]


def profiler_ablation(
    runner: Runner, mix: str = "hetero-5", scheme: str = "equal"
) -> ProfilerResult:
    """Estimation error of online APC_alone under both counting modes."""
    specs = mix_core_specs(mix)
    true_alone = np.array([runner.alone_point(s)[0] for s in specs])
    errors = {}
    for mode in ("stalled", "pending"):
        cfg = replace(runner.sim_config, interference_mode=mode)
        factory = scheduler_factory(scheme, runner.profiles(specs))
        sim = simulate(specs, factory, cfg)
        est = sim.apc_alone_est
        errors[mode] = float(np.mean(np.abs(est - true_alone) / true_alone))
    return ProfilerResult(mix=mix, scheme=scheme, errors=errors)


# ----------------------------------------------------------------------
# 4. priority enforcement: strict scheduler vs knapsack-as-shares
# ----------------------------------------------------------------------
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
    profiles = runner.profiles(specs)
    ipc_alone = np.array([runner.alone_point(s)[1] for s in specs])

    strict_run = runner.run(mix, "prio_apc")

    # the paper's "special form of partitioning": knapsack quantities as shares
    n = profiles.n
    sol = solve_fractional_knapsack(
        1.0 / (n * profiles.apc_alone), profiles.apc_alone, strict_run.sim.total_apc
    )
    q = sol.quantities
    beta = q / q.sum() if q.sum() > 0 else np.full(n, 1.0 / n)
    shares_sim = simulate(
        specs, lambda m: StartTimeFairScheduler(m, beta), runner.sim_config
    )

    from repro.core.metrics import WeightedSpeedup

    wsp = WeightedSpeedup()
    return PriorityEnforcementResult(
        mix=mix,
        wsp_strict=wsp(strict_run.sim.ipc_shared, ipc_alone),
        wsp_shares=wsp(shares_sim.ipc_shared, ipc_alone),
        apc_strict=strict_run.sim.apc_shared,
        apc_shares=shares_sim.apc_shared,
    )


# ----------------------------------------------------------------------
# 5. fully-online operation vs static alone-run profiling (Sec. IV-C)
# ----------------------------------------------------------------------
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
    from repro.control import (
        EMASmoother,
        EpochController,
        ProfileTracker,
        RelativeShiftDetector,
    )
    from repro.core.metrics import metric_by_name
    from repro.experiments.figure2 import OPTIMAL_FOR

    metric_name = next(
        (m for m, s in OPTIMAL_FOR.items() if s == scheme_name), "hsp"
    )
    metric = metric_by_name(metric_name)

    specs = mix_core_specs(mix)
    ipc_alone = np.array([runner.alone_point(s)[1] for s in specs])
    static_run = runner.run(mix, scheme_name)
    profiles = runner.profiles(specs)
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
        value_static=metric(static_run.sim.ipc_shared, ipc_alone),
        value_online=metric(online_sim.ipc_shared, ipc_alone),
        beta_static=scheme.beta(profiles),
        beta_online=beta_online,
    )


# ----------------------------------------------------------------------
# 6. bandwidth-scaling mode: faster bus vs a second channel
# ----------------------------------------------------------------------
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
    from repro.sim.dram.config import DRAMConfig, ddr2_800
    from repro.sim.mc.fcfs import FCFSScheduler

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
