"""Cross-experiment sweep compiler: one deduplicated task DAG.

Every ``repro-experiments`` exhibit is, underneath, a set of
simulations drawn from the same design space: alone-mode *profile*
points (one per benchmark per :class:`~repro.sim.engine.SimConfig`),
shared-mode *run* points (one per (mix, scheme, copies, config)), and a
few *heuristic-scheduler* points (PAR-BS / TCM for the extension
study).  Exhibits overlap heavily: Figure 1 is a strict subset of
Figure 2's grid, Table III/IV re-profile the benchmarks Figure 2
already profiled, the extension/scorecard/ablation studies all read
slices of the main grid.

Each exhibit module declares the points its ``run`` reads in a
``points(cfg_for)`` function beside it; this module *compiles* a set of
exhibits into a single content-addressed task DAG:

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
pure bookkeeping (compiling a plan performs zero simulations).  The
:class:`~repro.experiments.runner.Runner` compiles a one-point plan
with :func:`points_plan` for each point missing from its results table.
"""

from __future__ import annotations

import importlib
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
    "profile_points",
    "run_points",
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
        # the one key of a benchmark's alone-mode profile: the pool,
        # the in-process walk and the persistent SimCache all use it
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
    :class:`ProfilePoint` -- keyed by the realized
    :class:`~repro.sim.cpu.CoreSpec` -- so surrogate sweeps
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
# point lists: each exhibit's ``points(cfg_for)`` builds its demand
# from these, beside the code that reads the results
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


def profile_points(mixes, cfg: SimConfig) -> list[ProfilePoint]:
    """One alone-mode profile per distinct benchmark of ``mixes``."""
    return [ProfilePoint(b, cfg) for b in _mix_benches(mixes)]


def run_points(mixes, schemes, cfg: SimConfig, copies: int = 1) -> list[RunPoint]:
    """Every (mix, scheme) shared-mode run, mix-major."""
    return [
        RunPoint(mix, scheme, copies, cfg)
        for mix in mixes
        for scheme in schemes
    ]


#: exhibit -> the module whose ``points(cfg_for)`` declares its demand
#: as ``(points, serial_residue)``: the simulations its ``run`` reads,
#: and how many dependent simulations it runs itself during assembly
_EXHIBIT_MODULES = {
    "figure1": "repro.experiments.figure1",
    "figure2": "repro.experiments.figure2",
    "figure3": "repro.experiments.figure3",
    "figure4": "repro.experiments.figure4",
    "table3": "repro.experiments.table3",
    "table4": "repro.experiments.table4",
    "ablation": "repro.experiments.ablation",
    "extension": "repro.experiments.extension",
    "sensitivity": "repro.experiments.sensitivity",
    "predicted": "repro.experiments.predicted",
    "scorecard": "repro.experiments.scorecard",
    "regression": "repro.experiments.regression",
    "surrogate": "repro.experiments.surrogate_exhibit",
}

#: every exhibit the compiler knows how to walk
PLANNABLE_EXHIBITS: tuple[str, ...] = tuple(_EXHIBIT_MODULES)


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
    """Compile the requested exhibits' ``points`` into one deduplicated DAG.

    ``config_factory(dram=None) -> SimConfig`` defaults to the CLI's
    :func:`default_config` at the given ``quick`` setting; pass a
    custom factory to plan at other window lengths (tests, benches).
    """
    from repro.util.errors import ConfigurationError

    if config_factory is None:
        def config_factory(dram=None, _q=quick):
            return default_config(_q, dram)

    names = tuple(exhibits)
    unknown = [n for n in names if n not in _EXHIBIT_MODULES]
    if unknown:
        raise ConfigurationError(
            f"cannot plan {unknown!r}; plannable: {PLANNABLE_EXHIBITS}"
        )

    with obs.span("plan.compile", attrs={"exhibits": len(names)}):
        demand_points: dict[str, list[Point]] = {}
        residue: dict[str, int] = {}
        for name in names:
            module = importlib.import_module(_EXHIBIT_MODULES[name])
            demand_points[name], residue[name] = module.points(config_factory)
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
    points = profile_points(mixes, config)
    points += run_points(mixes, tuple(schemes), config, copies)
    return _compile({"grid": points}, {"grid": 0})


def points_plan(points, *, name: str = "sweep") -> SweepPlan:
    """Compile an explicit point list into a single-demand plan.

    Like :func:`grid_plan` but for arbitrary points (the surrogate
    sweep builds its own groups rather than mix x scheme grids, and a
    Runner compiles each missing point with its profiles); the demand
    lists the profiles first.
    """
    ordered = sorted(points, key=lambda p: not isinstance(p, _PROFILE_POINTS))
    return _compile({name: ordered}, {name: 0})
