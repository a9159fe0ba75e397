#!/usr/bin/env python
"""Online re-partitioning tracking a phase-changing application.

Paper Sec. IV-C (last paragraph): APC_alone is profiled periodically;
"when an application's behavior changes, its APC_alone will be updated
correspondingly [and] our partitioning schemes will change an
application's bandwidth share correspondingly."

This example runs a 4-app mix in which one app ("morph") starts as a
light pointer-chaser and turns into a heavy streamer at cycle 400k.  A
Proportional controller re-profiles every 50k cycles and updates the
start-time-fair shares; we print the share trajectory and show the
morphing app's share following its behaviour.

Run:  python examples/online_adaptation.py
"""

import numpy as np

from repro.control import (
    EMASmoother,
    EpochController,
    ProfileTracker,
    RelativeShiftDetector,
)
from repro.core import ProportionalPartitioning
from repro.sim import (
    CorePhase,
    CoreSpec,
    SimConfig,
    StartTimeFairScheduler,
    simulate,
)

PHASE_SWITCH = 400_000.0

specs = [
    CoreSpec(name="streamer", api=0.05, ipc_peak=0.4, mlp=16, write_fraction=0.1),
    CoreSpec(name="steady", api=0.02, ipc_peak=0.4, mlp=8),
    CoreSpec(
        name="morph",
        api=0.004,  # phase 0: light
        ipc_peak=0.6,
        mlp=16,
        phases=(CorePhase(PHASE_SWITCH, 0.05, 0.5),),  # then: heavy
    ),
    CoreSpec(name="background", api=0.003, ipc_peak=0.7, mlp=2),
]

cfg = SimConfig(
    warmup_cycles=0,
    measure_cycles=800_000,
    seed=33,
    epoch_cycles=50_000.0,
)

# fixed epochs and an EMA(0.7) profile; change detection off
controller = EpochController(
    ProportionalPartitioning(),
    api=[0.05, 0.02, 0.05, 0.003],  # morph's API declared at its heavy phase
    bandwidth=cfg.dram.peak_apc,
    epoch_cycles=cfg.epoch_cycles,
    names=[s.name for s in specs],
    tracker=ProfileTracker(
        len(specs),
        smoother=EMASmoother(alpha=0.7),
        detector=RelativeShiftDetector(float("inf")),
    ),
)
result = simulate(
    specs,
    lambda n: StartTimeFairScheduler(n, np.full(n, 0.25)),
    cfg,
    repartition_hook=controller,
)

history = [(d.cycle, d.beta) for d in controller.decisions if d.beta is not None]
print("share trajectory (Proportional controller, epoch = 50k cycles):")
print(f"{'cycle':>9s}  " + "".join(f"{s.name:>12s}" for s in specs))
for cycle, beta in history:
    marker = "  <- morph turns heavy" if abs(cycle - PHASE_SWITCH) < 25_000 else ""
    print(f"{cycle:9.0f}  " + "".join(f"{b:12.3f}" for b in beta) + marker)

before = next(b for c, b in history if c < PHASE_SWITCH)
after = controller.latest_beta
print(f"\nmorph's share: {before[2]:.3f} before the phase change -> "
      f"{after[2]:.3f} after")
print("final measured IPCs:",
      {s.name: round(float(i), 3) for s, i in zip(specs, result.ipc_shared)})
