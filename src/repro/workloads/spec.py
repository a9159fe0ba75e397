"""SPEC CPU2006 surrogate benchmarks (paper Table III).

Each paper benchmark becomes a parameterized traffic source whose
alone-mode operating point matches Table III:

* ``apki`` is taken directly from the table (API is a program property,
  Eq. 1 -- our generators hit it by construction);
* ``apkc_alone`` is matched by *calibration*: the core's compute ceiling
  ``ipc_peak`` (and, for bus-saturated benchmarks like lbm, the
  writeback fraction that sets the achievable channel efficiency) is
  tuned until a standalone DDR2-400 run reproduces the table value.
  :mod:`repro.workloads.calibrate` regenerates the numbers baked in
  below.

The ``mlp`` (maximum outstanding misses) is assigned by memory-intensity
class: streaming high-intensity codes sustain deep miss-level
parallelism; low-intensity latency-bound codes do not.  This is what
gives the paper's Sec. VI-C scaling behaviour -- bandwidth-bound apps'
``APC_alone`` grows much faster with bus frequency than latency-bound
apps' -- without per-benchmark hand-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.apps import AppProfile
from repro.sim.cpu import CoreSpec
from repro.util.errors import ConfigurationError
from repro.sim.stream import StreamSpec

__all__ = [
    "BenchmarkSpec",
    "TABLE3",
    "benchmark",
    "paper_profile",
    "mlp_for_apkc",
]


def mlp_for_apkc(apkc_alone: float) -> int:
    """Outstanding-miss depth by memory-intensity class (see module doc).

    High/middle intensity codes are streaming (deep MLP: the 192-entry
    ROB of Table II holds dozens of misses); low-intensity codes are
    latency-bound pointer-chasers with shallow MLP.  Deep MLP for the
    intensive apps is what makes the unmanaged FCFS baseline starve
    light applications (queue-depth-proportional service), the behaviour
    the paper's motivation section describes.
    """
    if apkc_alone >= 8.0:
        return 24
    if apkc_alone >= 4.0:
        return 12
    if apkc_alone >= 2.0:
        return 3
    return 2


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table III benchmark surrogate.

    ``ipc_peak`` and ``write_fraction`` are the calibrated knobs; the
    rest comes from the paper or the intensity heuristic.
    """

    name: str
    btype: str  # "INT" or "FP"
    apkc_alone: float  # Table III target, accesses per kilo-cycle
    apki: float  # Table III, accesses per kilo-instruction
    ipc_peak: float
    write_fraction: float
    mlp: int
    row_locality: float = 0.45
    footprint_rows: int = 1024

    def __post_init__(self) -> None:
        if self.btype not in ("INT", "FP"):
            raise ConfigurationError(f"btype must be INT or FP, got {self.btype!r}")

    @property
    def api(self) -> float:
        return self.apki / 1000.0

    @property
    def apc_alone_target(self) -> float:
        return self.apkc_alone / 1000.0

    @property
    def ipc_alone_target(self) -> float:
        return self.apkc_alone / self.apki

    @property
    def intensity(self) -> str:
        """Paper Sec. V-C1 classification (high > 8, middle 4..8, low < 4)."""
        if self.apkc_alone > 8.0:
            return "high"
        if self.apkc_alone > 4.0:
            return "middle"
        return "low"

    def core_spec(self) -> CoreSpec:
        """Simulator core parameters for this benchmark."""
        return CoreSpec(
            name=self.name,
            api=self.api,
            ipc_peak=self.ipc_peak,
            mlp=self.mlp,
            write_fraction=self.write_fraction,
            stream=StreamSpec(
                row_locality=self.row_locality,
                footprint_rows=self.footprint_rows,
            ),
        )

    def paper_profile(self) -> AppProfile:
        """Model-level profile using the paper's Table III reference values."""
        return AppProfile(self.name, api=self.api, apc_alone=self.apc_alone_target)


def _bench(
    name: str,
    btype: str,
    apkc: float,
    apki: float,
    ipc_peak: float,
    wf: float,
    *,
    mlp: int | None = None,
    row_locality: float | None = None,
) -> BenchmarkSpec:
    default_locality = 0.55 if btype == "FP" else 0.35
    return BenchmarkSpec(
        name=name,
        btype=btype,
        apkc_alone=apkc,
        apki=apki,
        ipc_peak=ipc_peak,
        write_fraction=wf,
        mlp=mlp if mlp is not None else mlp_for_apkc(apkc),
        row_locality=row_locality if row_locality is not None else default_locality,
        footprint_rows=2048 if apkc >= 8 else (1024 if apkc >= 4 else 512),
    )


# ----------------------------------------------------------------------
# Table III with calibrated (ipc_peak, write_fraction).
#
# The calibrated values below were produced by
#   python -m repro.workloads.calibrate
# at DDR2-400 (seed 2013, 200k warmup + 1M measure) and reproduce the
# paper's APKC_alone within ~2% (see tests/workloads/test_calibration.py).
# lbm is the one bus-saturated benchmark: its ipc_peak is deliberately
# far above its alone IPC and its write fraction sets the saturated
# channel efficiency (~94% of peak), matching Table III and the +84%
# APC_alone growth at 6.4 GB/s reported in Sec. VI-C.
# ----------------------------------------------------------------------
TABLE3: dict[str, BenchmarkSpec] = {
    b.name: b
    for b in (
        _bench("lbm", "FP", 9.38517, 53.1331, 0.70654, 0.1275),
        _bench("libquantum", "INT", 6.91693, 34.1188, 0.20511, 0.1),
        _bench("milc", "FP", 6.87143, 42.2216, 0.16465, 0.15),
        _bench("soplex", "FP", 6.05614, 37.8789, 0.16082, 0.15),
        _bench("hmmer", "INT", 5.29083, 4.6008, 1.15672, 0.1),
        _bench("omnetpp", "INT", 5.18984, 30.5707, 0.17076, 0.1),
        _bench("sphinx3", "FP", 4.88898, 13.5657, 0.3625, 0.15),
        _bench("leslie3d", "FP", 4.3855, 7.5847, 0.58159, 0.15),
        _bench("bzip2", "INT", 3.93331, 5.6413, 0.84431, 0.1),
        _bench("gromacs", "FP", 3.36604, 5.1976, 0.73869, 0.15),
        _bench("h264ref", "INT", 3.04387, 2.2705, 1.43488, 0.1),
        _bench("zeusmp", "FP", 2.42424, 4.521, 0.56135, 0.15),
        _bench("gobmk", "INT", 1.91485, 4.0668, 0.52603, 0.1),
        _bench("namd", "FP", 0.61975, 0.428, 1.46498, 0.15),
        _bench("sjeng", "INT", 0.559802, 0.7906, 0.71637, 0.1),
        _bench("povray", "FP", 0.553825, 0.6977, 0.80309, 0.15),
    )
}


def benchmark(name: str) -> BenchmarkSpec:
    """Look up a Table III benchmark by name."""
    try:
        return TABLE3[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {sorted(TABLE3)}"
        ) from None


def paper_profile(name: str) -> AppProfile:
    """Model profile with the paper's reference values for ``name``."""
    return benchmark(name).paper_profile()
