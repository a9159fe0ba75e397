"""Regenerate the engine bit-identity fixture (``golden_simresults.json``).

The fixture pins the *exact* floating-point output of the event-driven
engine for a spread of configurations (schedulers, page policies,
channel counts, writes, phases, bank partitioning).  It was first
generated from the pre-optimization engine; the fast paths (indexed
scheduler queues, batched stream generation, ``__slots__`` records) are
required to reproduce every value bit-for-bit, which
``test_engine_equivalence.py`` asserts.

Run from the repo root to regenerate (only after an *intentional*
behaviour change)::

    PYTHONPATH=src python tests/sim/make_golden.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_simresults.json"


def golden_cases():
    """Name -> zero-argument callable returning a SimResult."""
    from repro.sim.cpu import CorePhase, CoreSpec
    from repro.sim.dram.config import DRAMConfig, ddr2_400, ddr2_1600
    from repro.sim.engine import SimConfig, simulate
    from repro.sim.mc.fcfs import FCFSScheduler
    from repro.sim.mc.frfcfs import FRFCFSScheduler
    from repro.sim.mc.parbs import PARBSScheduler
    from repro.sim.mc.priority import PriorityScheduler
    from repro.sim.mc.stf import StartTimeFairScheduler
    from repro.sim.mc.tcm import TCMScheduler
    from repro.sim.stream import StreamSpec
    from repro.workloads.mixes import mix_core_specs

    short = SimConfig(warmup_cycles=10_000.0, measure_cycles=100_000.0, seed=7)
    cases = {}

    specs4 = mix_core_specs("hetero-5")
    cases["fcfs_hetero5"] = lambda: simulate(
        specs4, lambda n: FCFSScheduler(n), short
    )

    specs16 = mix_core_specs("hetero-5", copies=4)
    beta16 = np.full(16, 1.0 / 16)
    cases["stf_16core"] = lambda: simulate(
        specs16, lambda n: StartTimeFairScheduler(n, beta16), short
    )

    heavy = CoreSpec(name="h", api=0.05, ipc_peak=0.5, mlp=24, write_fraction=0.1)
    cases["fcfs_saturated_writes"] = lambda: simulate(
        [heavy] * 4, lambda n: FCFSScheduler(n), short
    )

    cases["priority_hetero5"] = lambda: simulate(
        specs4, lambda n: PriorityScheduler(n, [2, 0, 3, 1]), short
    )

    open_page = SimConfig(
        dram=DRAMConfig(name="DDR2-400-open", page_policy="open"),
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=11,
    )
    local = CoreSpec(
        name="loc",
        api=0.02,
        ipc_peak=1.0,
        mlp=8,
        stream=StreamSpec(row_locality=0.85, footprint_rows=64),
    )
    cases["frfcfs_open_page"] = lambda: simulate(
        [local] * 3, lambda n: FRFCFSScheduler(n), open_page
    )

    two_chan = SimConfig(
        dram=DRAMConfig(name="DDR2-400-2ch", n_channels=2),
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=13,
    )
    cases["fcfs_two_channels"] = lambda: simulate(
        specs4, lambda n: FCFSScheduler(n), two_chan
    )
    beta4 = np.array([0.4, 0.3, 0.2, 0.1])
    cases["stf_two_channels"] = lambda: simulate(
        specs4, lambda n: StartTimeFairScheduler(n, beta4), two_chan
    )

    phased = CoreSpec(
        name="ph",
        api=0.005,
        ipc_peak=2.0,
        mlp=8,
        phases=(CorePhase(start_cycle=40_000.0, api=0.02, ipc_peak=1.0),),
    )
    epoch_cfg = SimConfig(
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=17,
        epoch_cycles=20_000.0,
    )
    cases["stf_phased_epochs"] = lambda: simulate(
        [phased, heavy], lambda n: StartTimeFairScheduler(n, np.array([0.5, 0.5])),
        epoch_cfg,
    )

    banked = CoreSpec(
        name="bk",
        api=0.02,
        ipc_peak=1.0,
        mlp=8,
        stream=StreamSpec(bank_set=(0, 3, 8, 17)),
    )
    cases["fcfs_bank_partitioned"] = lambda: simulate(
        [banked, heavy], lambda n: FCFSScheduler(n), short
    )

    cases["parbs_hetero5"] = lambda: simulate(
        specs4, lambda n: PARBSScheduler(n, marking_cap=3), short
    )
    cases["tcm_hetero5"] = lambda: simulate(
        specs4, lambda n: TCMScheduler(n, epoch_requests=50), short
    )

    # shapes the exhibit sweeps run: 16 cores on the bus-scaled
    # DDR2-1600 (Sec. VI-C), an alone-mode profile, and strict priority
    # with posted writes stalling a core on its write queue
    fast_bus = SimConfig(
        dram=ddr2_1600(),
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=7,
    )
    specs16_h4 = mix_core_specs("hetero-4", 4)
    beta16_h4 = np.tile([0.4, 0.3, 0.2, 0.1], 4) / 4
    cases["stf_16core_ddr2_1600"] = lambda: simulate(
        specs16_h4, lambda n: StartTimeFairScheduler(n, beta16_h4), fast_bus
    )
    lbm = mix_core_specs("hetero-4")[0]
    cases["fcfs_alone_profile"] = lambda: simulate(
        [lbm], lambda n: FCFSScheduler(n), short
    )
    writer = CoreSpec(
        name="wr",
        api=0.01,
        ipc_peak=0.6,
        mlp=6,
        write_fraction=0.4,
        write_queue_cap=3,
    )
    cases["priority_writes"] = lambda: simulate(
        [*mix_core_specs("hetero-4"), writer],
        lambda n: PriorityScheduler(n, [4, 2, 3, 1, 0]),
        short,
    )

    # branches no case above reaches: the original-DSTF tag rule of the
    # Sec. IV-B enforcement ablation, raw ("pending") interference
    # counting on one channel and on two, the priority starvation guard,
    # and the open-page readiness probe on two channels
    beta5 = np.full(len(specs4), 1.0 / len(specs4))
    cases["stf_arrival_coupled"] = lambda: simulate(
        specs4,
        lambda n: StartTimeFairScheduler(n, beta5, arrival_coupled=True),
        short,
    )
    pending = SimConfig(
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=19,
        interference_mode="pending",
    )
    cases["stf_pending_interference"] = lambda: simulate(
        specs4, lambda n: StartTimeFairScheduler(n, beta5), pending
    )
    pending_two_chan = SimConfig(
        dram=DRAMConfig(name="DDR2-400-2ch", n_channels=2),
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=23,
        interference_mode="pending",
    )
    cases["fcfs_pending_two_channels"] = lambda: simulate(
        specs4, lambda n: FCFSScheduler(n), pending_two_chan
    )
    cases["priority_starvation_cap"] = lambda: simulate(
        specs4,
        lambda n: PriorityScheduler(n, [2, 0, 3, 1], starvation_cap=2_000.0),
        short,
    )
    open_two_chan = SimConfig(
        dram=DRAMConfig(name="DDR2-400-open-2ch", page_policy="open", n_channels=2),
        warmup_cycles=10_000.0,
        measure_cycles=100_000.0,
        seed=29,
    )
    cases["stf_open_page_two_channels"] = lambda: simulate(
        [local, *specs4[:2]],
        lambda n: StartTimeFairScheduler(n, np.array([0.5, 0.3, 0.2])),
        open_two_chan,
    )
    return cases


def result_record(result) -> dict:
    """Flatten a SimResult to JSON with full float precision (repr)."""
    return {
        "window_cycles": result.window_cycles,
        "bus_utilization": result.bus_utilization,
        "row_hit_rate": result.row_hit_rate,
        "scheduler_name": result.scheduler_name,
        "dram_name": result.dram_name,
        "seed": result.seed,
        "warmup_cycles": result.warmup_cycles,
        "apps": [
            {
                "name": a.name,
                "instructions": a.instructions,
                "accesses": a.accesses,
                "reads": a.reads,
                "writes": a.writes,
                "window_cycles": a.window_cycles,
                "mean_latency": a.mean_latency,
                "interference_cycles": a.interference_cycles,
                "apc_alone_est": a.apc_alone_est,
            }
            for a in result.apps
        ],
    }


def main() -> None:
    records = {name: result_record(fn()) for name, fn in golden_cases().items()}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(records)} cases)")


if __name__ == "__main__":
    main()
