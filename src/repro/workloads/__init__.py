"""Workload definitions: SPEC CPU2006 surrogates (Table III), workload
mixes (Table IV) and synthetic access-stream generators.

Note: :mod:`repro.workloads.calibrate` is intentionally *not* imported
here -- it depends on :mod:`repro.sim.engine`, which itself imports the
trace generators from this package; import it explicitly when needed.
"""

from repro.workloads.nonstationary import (
    SCENARIOS,
    AppPhaseTrack,
    NonStationaryWorkload,
    PhasePoint,
    alternating_workload,
    bursty_workload,
    phase_swap_workload,
    ramp_workload,
    scenario,
)
from repro.workloads.mixes import (
    HETERO_MIXES,
    HOMO_MIXES,
    MIXES,
    QOS_MIXES,
    mix_benchmarks,
    mix_core_specs,
    mix_paper_workload,
)
from repro.workloads.spec import (
    TABLE3,
    BenchmarkSpec,
    benchmark,
    paper_profile,
)
from repro.workloads.tracegen import MissAddressStream, StreamSpec

__all__ = [
    "HETERO_MIXES",
    "HOMO_MIXES",
    "MIXES",
    "QOS_MIXES",
    "mix_benchmarks",
    "mix_core_specs",
    "mix_paper_workload",
    "TABLE3",
    "BenchmarkSpec",
    "benchmark",
    "paper_profile",
    "MissAddressStream",
    "StreamSpec",
    "SCENARIOS",
    "AppPhaseTrack",
    "NonStationaryWorkload",
    "PhasePoint",
    "alternating_workload",
    "bursty_workload",
    "phase_swap_workload",
    "ramp_workload",
    "scenario",
]
