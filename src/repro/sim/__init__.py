"""Cycle-level CMP + DRAM simulation substrate (replaces GEM5+DRAMSim2)."""

from repro.sim.cpu import CorePhase, CoreSim, CoreSpec
from repro.sim.dram import (
    DRAMConfig,
    DRAMSystem,
    ddr2_400,
    ddr2_800,
    ddr2_1600,
)
from repro.sim.engine import Engine, SimConfig, run_alone, simulate
from repro.sim.mc import (
    FCFSScheduler,
    FRFCFSScheduler,
    PriorityScheduler,
    Scheduler,
    StartTimeFairScheduler,
)
from repro.sim.profiler import OnlineProfiler
from repro.sim.request import Request
from repro.sim.stats import AppCounters, AppWindowResult, SimResult
from repro.sim.stream import MissAddressStream, StreamSpec

__all__ = [
    "CorePhase",
    "CoreSim",
    "CoreSpec",
    "DRAMConfig",
    "DRAMSystem",
    "ddr2_400",
    "ddr2_800",
    "ddr2_1600",
    "Engine",
    "SimConfig",
    "run_alone",
    "simulate",
    "FCFSScheduler",
    "FRFCFSScheduler",
    "PriorityScheduler",
    "Scheduler",
    "StartTimeFairScheduler",
    "OnlineProfiler",
    "Request",
    "AppCounters",
    "AppWindowResult",
    "SimResult",
    "MissAddressStream",
    "StreamSpec",
]
