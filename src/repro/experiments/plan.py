"""Cross-experiment sweep compiler: one deduplicated task DAG.

Every ``repro-experiments`` exhibit is, underneath, a set of
simulations drawn from the same design space: alone-mode *profile*
points (one per benchmark per :class:`~repro.sim.engine.SimConfig`),
shared-mode *run* points (one per (mix, scheme, copies, config)), and a
few *heuristic-scheduler* points (PAR-BS / TCM for the extension
study).  Run serially per exhibit -- today's ``repro-experiments all``
-- the same points are simulated again and again: Figure 1 is a strict
subset of Figure 2's grid, Table III/IV re-profile the benchmarks
Figure 2 already profiled, the extension/scorecard/ablation studies
all re-run slices of the main grid.

This module *compiles* a set of exhibits into a single
content-addressed task DAG:

* every required simulation becomes a :class:`SimTask` keyed by a
  :func:`~repro.util.cache.config_digest` of everything it depends on
  (the same digests the persistent :class:`~repro.util.cache.SimCache`
  uses, so disk-cached profiles short-circuit the DAG too);
* identical tasks demanded by several exhibits collapse into one node,
  and per-exhibit demand is recorded so the dedup ratio is measurable
  (``parallel.dedup_ratio``);
* profile tasks have no dependencies; run tasks depend on the profile
  tasks of their mix (the alone table feeds the scheme's share/priority
  computation), which is the DAG's only edge type.

Execution lives in :mod:`repro.experiments.dispatch`; this module is
pure bookkeeping (compiling a plan performs zero simulations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.sim.engine import SimConfig
from repro.util.cache import config_digest

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.surrogate.space import SurrogateApp

__all__ = [
    "ProfilePoint",
    "RunPoint",
    "HeuristicPoint",
    "SurrogateProfilePoint",
    "SurrogateRunPoint",
    "SimTask",
    "SweepPlan",
    "PLANNABLE_EXHIBITS",
    "default_config",
    "compile_plan",
    "grid_plan",
    "points_plan",
]


def default_config(quick: bool = False, dram=None) -> SimConfig:
    """The CLI's experiment configuration (single source of truth --
    ``repro-experiments`` and the planner must agree on it exactly,
    or planned tasks would not match what the exhibits demand)."""
    kwargs = {}
    if dram is not None:
        kwargs["dram"] = dram
    if quick:
        return SimConfig(
            warmup_cycles=100_000.0, measure_cycles=250_000.0, seed=7, **kwargs
        )
    return SimConfig(
        warmup_cycles=200_000.0, measure_cycles=1_000_000.0, seed=7, **kwargs
    )


# ----------------------------------------------------------------------
# points: the three simulation shapes the experiments draw from
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfilePoint:
    """One alone-mode profiling simulation (benchmark x config)."""

    bench: str
    config: SimConfig

    kind = "profile"

    def digest(self) -> str:
        # identical to Runner._alone_key, so the persistent SimCache
        # serves planner tasks and vice versa
        from repro.workloads.spec import benchmark

        return config_digest(
            "alone-point", benchmark(self.bench).core_spec(), self.config
        )


@dataclass(frozen=True)
class RunPoint:
    """One shared-mode simulation (mix x scheme x copies x config)."""

    mix: str
    scheme: str
    copies: int
    config: SimConfig

    kind = "run"

    def digest(self) -> str:
        return config_digest(
            "run-point", self.mix, self.scheme, self.copies, self.config
        )


@dataclass(frozen=True)
class HeuristicPoint:
    """One heuristic-scheduler simulation (PAR-BS / TCM extension)."""

    mix: str
    scheduler: str
    copies: int
    config: SimConfig

    kind = "heuristic"

    def digest(self) -> str:
        return config_digest(
            "heuristic-point", self.mix, self.scheduler, self.copies, self.config
        )


@dataclass(frozen=True)
class SurrogateProfilePoint:
    """One alone-mode profile of a synthetic surrogate app.

    The digest deliberately uses the same ``"alone-point"`` scheme as
    :class:`ProfilePoint` / ``Runner._alone_key`` -- keyed by the
    realized :class:`~repro.sim.cpu.CoreSpec` -- so surrogate sweeps
    share the persistent SimCache with every other consumer of
    alone-mode profiles.
    """

    app: SurrogateApp
    config: SimConfig

    kind = "sprofile"

    def digest(self) -> str:
        return config_digest(
            "alone-point", self.app.core_spec(self.config.dram), self.config
        )


@dataclass(frozen=True)
class SurrogateRunPoint:
    """One shared-mode simulation of a surrogate app group x scheme."""

    apps: tuple[SurrogateApp, ...]
    scheme: str
    config: SimConfig

    kind = "srun"

    def digest(self) -> str:
        return config_digest("surrogate-run", self.scheme, self.apps, self.config)

    @property
    def cost_weight(self) -> float:
        """Scheduling-cost scale vs. a typical 4-app run task."""
        return max(len(self.apps), 1) / 4.0


Point = (
    ProfilePoint
    | RunPoint
    | HeuristicPoint
    | SurrogateProfilePoint
    | SurrogateRunPoint
)


@dataclass(frozen=True)
class SimTask:
    """One node of the compiled DAG: a content-addressed simulation."""

    digest: str
    point: Point
    #: digests of tasks that must complete first (profile -> run edges)
    deps: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return self.point.kind


# ----------------------------------------------------------------------
# per-exhibit demand: exactly the points each exhibit would simulate
# ----------------------------------------------------------------------
def _mix_benches(mixes) -> tuple[str, ...]:
    from repro.workloads.mixes import mix_core_specs

    return tuple(
        sorted(
            {
                s.name.split("#")[0]
                for mix in mixes
                for s in mix_core_specs(mix, 1)
            }
        )
    )


def _profiles(mixes, cfg: SimConfig) -> list[ProfilePoint]:
    return [ProfilePoint(b, cfg) for b in _mix_benches(mixes)]


def _runs(mixes, schemes, cfg: SimConfig, copies: int = 1) -> list[RunPoint]:
    return [
        RunPoint(mix, scheme, copies, cfg)
        for mix in mixes
        for scheme in schemes
    ]


def _demand_figure1(cfg_for):
    from repro.experiments.figure1 import FIG1_MIX, FIG1_SCHEMES
    from repro.experiments.runner import NOPART

    cfg = cfg_for()
    mixes = (FIG1_MIX,)
    return _profiles(mixes, cfg) + _runs(mixes, (NOPART,) + FIG1_SCHEMES, cfg), 0


def _demand_figure2(cfg_for):
    from repro.experiments.figure2 import FIG2_SCHEMES
    from repro.experiments.runner import NOPART
    from repro.workloads.mixes import HETERO_MIXES, HOMO_MIXES

    cfg = cfg_for()
    mixes = HOMO_MIXES + HETERO_MIXES
    return _profiles(mixes, cfg) + _runs(mixes, (NOPART,) + FIG2_SCHEMES, cfg), 0


def _demand_figure3(cfg_for):
    from repro.experiments.runner import NOPART
    from repro.workloads.mixes import QOS_MIXES

    cfg = cfg_for()
    mixes = tuple(QOS_MIXES)
    # the six QoS-guarded simulations depend on the nopart operating
    # point (plan.beta needs its utilized bandwidth) and stay serial
    return _profiles(mixes, cfg) + _runs(mixes, (NOPART,), cfg), 6


def _demand_figure4(cfg_for):
    from repro.experiments.figure2 import OPTIMAL_FOR
    from repro.experiments.figure4 import SCALE_POINTS
    from repro.workloads.mixes import HETERO_MIXES

    schemes = tuple(sorted(set(OPTIMAL_FOR.values()) | {"equal"}))
    points: list[Point] = []
    for _label, dram_factory, copies in SCALE_POINTS:
        cfg = cfg_for(dram_factory())
        points += _profiles(HETERO_MIXES, cfg)
        points += _runs(HETERO_MIXES, schemes, cfg, copies=copies)
    return points, 0


def _demand_table3(cfg_for):
    from repro.workloads.spec import TABLE3

    cfg = cfg_for()
    return [ProfilePoint(name, cfg) for name in TABLE3], 0


def _demand_table4(cfg_for):
    from repro.workloads.mixes import MIXES

    cfg = cfg_for()
    return _profiles(tuple(MIXES), cfg), 0


def _demand_ablation(cfg_for):
    # the model-vs-sim card scores Figure 2's grid; the other studies
    # read its hetero-5 Equal run plus six bespoke simulations:
    # arrival-coupled enforcement, the profiler's other counting mode,
    # priority-as-shares, online, and channel scaling x2
    points, _ = _demand_figure2(cfg_for)
    return points, 6


def _demand_extension(cfg_for):
    from repro.experiments.extension import HEURISTICS
    from repro.experiments.figure2 import OPTIMAL_FOR
    from repro.experiments.runner import NOPART
    from repro.workloads.mixes import HETERO_MIXES

    cfg = cfg_for()
    schemes = (NOPART,) + tuple(sorted(set(OPTIMAL_FOR.values())))
    points: list[Point] = _profiles(HETERO_MIXES, cfg)
    points += _runs(HETERO_MIXES, schemes, cfg)
    points += [
        HeuristicPoint(mix, h, 1, cfg) for mix in HETERO_MIXES for h in HEURISTICS
    ]
    return points, 0


def _demand_sensitivity(cfg_for):
    from repro.experiments.figure2 import FIG2_SCHEMES
    from repro.experiments.runner import NOPART
    from repro.experiments.sensitivity import default_perturbations

    mixes = ("hetero-5",)
    points: list[Point] = []
    for p in default_perturbations():
        points += _profiles(mixes, p.sim_config)
        points += _runs(mixes, (NOPART,) + FIG2_SCHEMES, p.sim_config)
    return points, 0


def _demand_predicted(cfg_for):
    # the model-only grid simulates nothing
    return [], 0


def _demand_scorecard(cfg_for):
    fig1, _ = _demand_figure1(cfg_for)
    t3, _ = _demand_table3(cfg_for)
    t4, _ = _demand_table4(cfg_for)
    fig3, fig3_serial = _demand_figure3(cfg_for)
    # the reduced Figure 2 check and the model-vs-sim card both read
    # Figure 2's grid
    fig2, _ = _demand_figure2(cfg_for)
    return fig1 + t3 + t4 + fig2 + fig3, fig3_serial


def _demand_regression(cfg_for):
    from repro.core.partitioning import default_schemes
    from repro.experiments.runner import NOPART

    fig1, _ = _demand_figure1(cfg_for)
    t3, _ = _demand_table3(cfg_for)
    fig3, fig3_serial = _demand_figure3(cfg_for)
    points = (
        fig1
        + t3
        + _runs(("hetero-5",), tuple(default_schemes()) + (NOPART,), cfg_for())
        + fig3
    )
    return points, fig3_serial


def _demand_surrogate(cfg_for):
    from repro.surrogate.space import smoke_settings
    from repro.surrogate.sweep import sweep_points

    # the exhibit fits and cross-validates on the smoke sweep; the
    # published artifact's full sweep goes through `repro-surrogate fit`
    return sweep_points(smoke_settings(), cfg_for), 0


_DEMANDS = {
    "figure1": _demand_figure1,
    "figure2": _demand_figure2,
    "figure3": _demand_figure3,
    "figure4": _demand_figure4,
    "table3": _demand_table3,
    "table4": _demand_table4,
    "ablation": _demand_ablation,
    "extension": _demand_extension,
    "sensitivity": _demand_sensitivity,
    "predicted": _demand_predicted,
    "scorecard": _demand_scorecard,
    "regression": _demand_regression,
    "surrogate": _demand_surrogate,
}

#: every exhibit the compiler knows how to walk
PLANNABLE_EXHIBITS: tuple[str, ...] = tuple(_DEMANDS)


# ----------------------------------------------------------------------
# the compiled plan
# ----------------------------------------------------------------------
@dataclass
class SweepPlan:
    """A deduplicated task DAG plus per-exhibit demand bookkeeping."""

    #: digest -> task, in a topological order (profiles before runs)
    tasks: dict[str, SimTask]
    #: exhibit -> digests it demands (unique within the exhibit, as a
    #: serial per-exhibit run memoizes within itself)
    demand: dict[str, tuple[str, ...]]
    #: exhibit -> simulations that stay serial during assembly (bespoke
    #: dependent sims the DAG does not model, e.g. QoS-guarded runs)
    serial_residue: dict[str, int] = field(default_factory=dict)

    @property
    def n_unique(self) -> int:
        return len(self.tasks)

    @property
    def n_demanded(self) -> int:
        """Simulations a naive per-exhibit execution would perform."""
        return sum(len(d) for d in self.demand.values())

    @property
    def dedup_ratio(self) -> float:
        """Fraction of demanded simulations the plan eliminates."""
        demanded = self.n_demanded
        return 1.0 - self.n_unique / demanded if demanded else 0.0

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tasks.values():
            out[t.kind] = out.get(t.kind, 0) + 1
        return out

    def summary(self) -> str:
        by_kind = ", ".join(
            f"{k}={v}" for k, v in sorted(self.counts_by_kind().items())
        )
        residue = sum(self.serial_residue.values())
        lines = [
            f"sweep plan: {len(self.demand)} experiments, "
            f"{self.n_demanded} demanded simulations -> "
            f"{self.n_unique} unique tasks ({by_kind})",
            f"  dedup ratio: {self.dedup_ratio * 100:.1f}% "
            f"({self.n_demanded - self.n_unique} simulations eliminated; "
            f"{residue} dependent sims stay serial during assembly)",
        ]
        for name, digests in self.demand.items():
            lines.append(f"  {name:12s} demands {len(digests):4d} tasks")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable plan (the CI artifact)."""

        def point_fields(p: Point) -> dict:
            out = {"kind": p.kind}
            if isinstance(p, ProfilePoint):
                out["bench"] = p.bench
            elif isinstance(p, RunPoint):
                out.update(mix=p.mix, scheme=p.scheme, copies=p.copies)
            elif isinstance(p, SurrogateProfilePoint):
                out["app"] = p.app.name
            elif isinstance(p, SurrogateRunPoint):
                out.update(scheme=p.scheme, apps=[a.name for a in p.apps])
            else:
                out.update(mix=p.mix, scheduler=p.scheduler, copies=p.copies)
            out["config"] = {
                "dram": p.config.dram.name,
                "warmup_cycles": p.config.warmup_cycles,
                "measure_cycles": p.config.measure_cycles,
                "seed": p.config.seed,
                "interference_mode": p.config.interference_mode,
            }
            return out

        return {
            "n_demanded": self.n_demanded,
            "n_unique": self.n_unique,
            "dedup_ratio": self.dedup_ratio,
            "counts_by_kind": self.counts_by_kind(),
            "serial_residue": dict(self.serial_residue),
            "demand": {k: list(v) for k, v in self.demand.items()},
            "tasks": {
                d: {**point_fields(t.point), "deps": list(t.deps)}
                for d, t in self.tasks.items()
            },
        }

    def write(self, path) -> None:
        import pathlib

        p = pathlib.Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


_PROFILE_POINTS = (ProfilePoint, SurrogateProfilePoint)


def _deps_for(point: Point, profile_digests: dict[tuple[object, SimConfig], str]):
    """Profile -> run dependency edges (the alone table feeds shares)."""
    if isinstance(point, SurrogateRunPoint):
        # dict.fromkeys: a group may contain the same app twice, but the
        # dependency edge (and its count) must appear once
        return tuple(
            dict.fromkeys(
                profile_digests[(a, point.config)]
                for a in point.apps
                if (a, point.config) in profile_digests
            )
        )
    if not isinstance(point, RunPoint):
        return ()
    return tuple(
        profile_digests[(b, point.config)]
        for b in _mix_benches((point.mix,))
        if (b, point.config) in profile_digests
    )


def _compile(
    demand_points: dict[str, list[Point]], residue: dict[str, int]
) -> SweepPlan:
    """The one compile loop behind every plan constructor.

    Each demand is deduplicated within itself (first point per digest
    wins, in order); the global task table then holds every profile
    before any task that depends on one, and each dependent task is
    wired to the profiles of every demand.
    """
    profile_digests: dict[tuple[object, SimConfig], str] = {}
    tasks: dict[str, SimTask] = {}
    dependents: list[tuple[str, Point]] = []
    demand: dict[str, tuple[str, ...]] = {}
    for name, points in demand_points.items():
        seen: dict[str, Point] = {}
        for p in points:
            d = p.digest()
            seen.setdefault(d, p)
            if isinstance(p, _PROFILE_POINTS):
                key = p.bench if isinstance(p, ProfilePoint) else p.app
                profile_digests[(key, p.config)] = d
        demand[name] = tuple(seen)
        for d, p in seen.items():
            if not isinstance(p, _PROFILE_POINTS):
                dependents.append((d, p))
            elif d not in tasks:
                tasks[d] = SimTask(digest=d, point=p)
    for d, p in dependents:
        if d not in tasks:
            tasks[d] = SimTask(
                digest=d, point=p, deps=_deps_for(p, profile_digests)
            )
    return SweepPlan(tasks=tasks, demand=demand, serial_residue=residue)


def compile_plan(
    exhibits,
    *,
    quick: bool = False,
    config_factory=None,
) -> SweepPlan:
    """Walk the requested exhibits and compile the deduplicated DAG.

    ``config_factory(dram=None) -> SimConfig`` defaults to the CLI's
    :func:`default_config` at the given ``quick`` setting; pass a
    custom factory to plan at other window lengths (tests, benches).
    """
    from repro.util.errors import ConfigurationError

    if config_factory is None:
        def config_factory(dram=None, _q=quick):
            return default_config(_q, dram)

    names = tuple(exhibits)
    unknown = [n for n in names if n not in _DEMANDS]
    if unknown:
        raise ConfigurationError(
            f"cannot plan {unknown!r}; plannable: {PLANNABLE_EXHIBITS}"
        )

    with obs.span("plan.compile", attrs={"exhibits": len(names)}):
        demand_points: dict[str, list[Point]] = {}
        residue: dict[str, int] = {}
        for name in names:
            demand_points[name], residue[name] = _DEMANDS[name](config_factory)
        plan = _compile(demand_points, residue)
    obs.registry().gauge("parallel.dedup_ratio").set(plan.dedup_ratio)
    return plan


# perfbench/sweep.py and benchmarks/bench_sweep.py plan their sweeps here.
def grid_plan(  # reprolint: disable=dead-code
    mixes, schemes, config: SimConfig, *, copies: int = 1
) -> SweepPlan:
    """A single-grid plan: every (mix, scheme) run of one grid plus the
    alone profiles it depends on."""
    mixes = tuple(mixes)
    points = _profiles(mixes, config)
    points += _runs(mixes, tuple(schemes), config, copies)
    return _compile({"grid": points}, {"grid": 0})


def points_plan(points, *, name: str = "sweep") -> SweepPlan:
    """Compile an explicit point list into a single-demand plan.

    Like :func:`grid_plan` but for arbitrary points (the surrogate
    sweep builds its own groups rather than mix x scheme grids); the
    demand lists the profiles first.
    """
    ordered = sorted(points, key=lambda p: not isinstance(p, _PROFILE_POINTS))
    return _compile({name: ordered}, {name: 0})
