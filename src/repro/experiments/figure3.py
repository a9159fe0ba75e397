"""Figure 3: QoS-guaranteed partitioning (paper Sec. VI-B).

Two mixes -- Mix-1 (lbm, libquantum, omnetpp, hmmer) and Mix-2 (h264ref,
zeusmp, leslie3d, hmmer) -- with the objective of pinning hmmer's IPC at
0.6 while maximizing the best-effort applications' performance with the
remaining bandwidth (Eq. 11).

The figure's claims:

* under No_partitioning, hmmer's IPC is *not* 0.6 (below in one mix /
  above in the other -- i.e. unregulated);
* under QoS-guaranteed partitioning its IPC is ~0.6 in both mixes;
* the best-effort group's Hsp/Wsp/IPCsum improve substantially over
  No_partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.apps import AppProfile, Workload
from repro.core.metrics import HarmonicWeightedSpeedup, SumOfIPCs, WeightedSpeedup
from repro.core.qos import QoSPartitioner, QoSTarget
from repro.experiments.plan import profile_points, run_points
from repro.experiments.report import format_table
from repro.experiments.runner import NOPART, Runner
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.sim.engine import simulate
from repro.workloads.mixes import QOS_MIXES, mix_core_specs

__all__ = [
    "QOS_APP", "QOS_IPC_TARGET", "Figure3Row", "Figure3Result", "points", "run", "render",
]

QOS_APP = "hmmer"
QOS_IPC_TARGET = 0.6  # the paper's empirically-reachable target


@dataclass(frozen=True)
class Figure3Row:
    mix: str
    objective: str
    qos_ipc_nopart: float
    qos_ipc_guaranteed: float
    #: best-effort-group metric, normalized to No_partitioning
    best_effort_gain: float


@dataclass(frozen=True)
class Figure3Result:
    rows: tuple[Figure3Row, ...]

    def row(self, mix: str, objective: str) -> Figure3Row:
        for r in self.rows:
            if r.mix == mix and r.objective == objective:
                return r
        raise KeyError((mix, objective))


_OBJECTIVES = (
    HarmonicWeightedSpeedup(),
    WeightedSpeedup(),
    SumOfIPCs(),
)


def points(cfg_for):
    """The mixes' profiles and No_partitioning runs; the QoS-guarded
    simulation per (mix, objective) depends on the nopart run's
    utilized bandwidth, so ``run`` simulates it itself."""
    cfg = cfg_for()
    mixes = tuple(QOS_MIXES)
    residue = len(QOS_MIXES) * len(_OBJECTIVES)
    return profile_points(mixes, cfg) + run_points(mixes, (NOPART,), cfg), residue


def run(runner: Runner) -> Figure3Result:
    """Execute the QoS experiment on both mixes and three objectives."""
    rows = []
    for mix in QOS_MIXES:
        specs = mix_core_specs(mix)
        qos_idx = [s.name for s in specs].index(QOS_APP)
        be_idx = [i for i in range(len(specs)) if i != qos_idx]

        # measured alone profiles drive the QoS reservation (Sec. IV-C)
        profiles = Workload.of(
            mix,
            [
                AppProfile(s.name, api=s.api, apc_alone=runner.alone_point(s)[0])
                for s in specs
            ],
        )
        ipc_alone = np.array([runner.alone_point(s)[1] for s in specs])

        # the QoS-guarded simulations below depend on the nopart run's
        # utilized bandwidth: they are this exhibit's serial residue
        nopart = runner.run(mix, NOPART).sim
        be_alone = ipc_alone[be_idx]

        for objective in _OBJECTIVES:
            plan = QoSPartitioner(objective).plan(
                profiles,
                nopart.total_apc,  # the utilized bandwidth (Eq. 2)
                [QoSTarget(QOS_APP, QOS_IPC_TARGET)],
            )
            guarded = simulate(
                specs,
                lambda n, b=plan.beta: StartTimeFairScheduler(n, b),
                runner.sim_config,
            )
            be_np = objective(nopart.ipc_shared[be_idx], be_alone)
            be_qos = objective(guarded.ipc_shared[be_idx], be_alone)
            rows.append(
                Figure3Row(
                    mix=mix,
                    objective=objective.name,
                    qos_ipc_nopart=float(nopart.ipc_shared[qos_idx]),
                    qos_ipc_guaranteed=float(guarded.ipc_shared[qos_idx]),
                    best_effort_gain=be_qos / be_np if be_np > 0 else float("inf"),
                )
            )
    return Figure3Result(rows=tuple(rows))


def render(result: Figure3Result) -> str:
    headers = [
        "mix", "objective", "hmmer IPC (nopart)",
        f"hmmer IPC (QoS, target {QOS_IPC_TARGET})", "best-effort gain",
    ]
    rows = [
        [
            r.mix, r.objective, r.qos_ipc_nopart, r.qos_ipc_guaranteed,
            r.best_effort_gain,
        ]
        for r in result.rows
    ]
    return format_table(
        headers,
        rows,
        title="Figure 3: QoS guarantee (hmmer pinned) + best-effort performance",
    )
