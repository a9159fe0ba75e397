"""Workload mixes (paper Table IV and Sec. VI-B/VI-C).

Fourteen four-application mixes: homo-1..7 drawn from a single
memory-intensity group (RSD of APC_alone <= 30) and hetero-1..7 spanning
groups (RSD > 30), plus the two QoS mixes of Sec. VI-B.  RSD values here
are computed from Table III's ``APKC_alone`` and reproduce the table's
heterogeneity column.
"""

from __future__ import annotations

from repro.core.apps import Workload
from repro.sim.cpu import CoreSpec
from repro.util.errors import ConfigurationError
from repro.workloads.spec import benchmark

__all__ = [
    "MIXES",
    "HOMO_MIXES",
    "HETERO_MIXES",
    "QOS_MIXES",
    "mix_benchmarks",
    "mix_core_specs",
    "mix_paper_workload",
]

#: Table IV verbatim
MIXES: dict[str, tuple[str, str, str, str]] = {
    "homo-1": ("libquantum", "milc", "soplex", "hmmer"),
    "homo-2": ("libquantum", "milc", "soplex", "omnetpp"),
    "homo-3": ("hmmer", "gromacs", "sphinx3", "leslie3d"),
    "homo-4": ("hmmer", "gromacs", "bzip2", "leslie3d"),
    "homo-5": ("h264ref", "zeusmp", "bzip2", "gromacs"),
    "homo-6": ("h264ref", "zeusmp", "gobmk", "gromacs"),
    "homo-7": ("h264ref", "zeusmp", "gobmk", "bzip2"),
    "hetero-1": ("milc", "soplex", "zeusmp", "bzip2"),
    "hetero-2": ("soplex", "hmmer", "gromacs", "gobmk"),
    "hetero-3": ("libquantum", "soplex", "zeusmp", "h264ref"),
    "hetero-4": ("lbm", "soplex", "h264ref", "bzip2"),
    "hetero-5": ("libquantum", "milc", "gromacs", "gobmk"),
    "hetero-6": ("lbm", "libquantum", "gromacs", "zeusmp"),
    "hetero-7": ("lbm", "milc", "gobmk", "zeusmp"),
}

HOMO_MIXES: tuple[str, ...] = tuple(n for n in MIXES if n.startswith("homo"))
HETERO_MIXES: tuple[str, ...] = tuple(n for n in MIXES if n.startswith("hetero"))

#: Sec. VI-B QoS experiment mixes (hmmer is the QoS-guaranteed app)
QOS_MIXES: dict[str, tuple[str, str, str, str]] = {
    "Mix-1": ("lbm", "libquantum", "omnetpp", "hmmer"),
    "Mix-2": ("h264ref", "zeusmp", "leslie3d", "hmmer"),
}


def mix_benchmarks(name: str):
    """Benchmark specs of one mix (Table IV or a QoS mix)."""
    table = {**MIXES, **QOS_MIXES}
    try:
        members = table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mix {name!r}; available: {sorted(table)}"
        ) from None
    return tuple(benchmark(b) for b in members)


def mix_core_specs(name: str, copies: int = 1) -> list[CoreSpec]:
    """Simulator core specs for one mix; ``copies`` scales the core count
    (Sec. VI-C runs 1/2/4 copies at 3.2/6.4/12.8 GB/s)."""
    if copies < 1:
        raise ConfigurationError("copies must be >= 1")
    specs: list[CoreSpec] = []
    for c in range(copies):
        for bench in mix_benchmarks(name):
            suffix = f"#{c}" if copies > 1 else ""
            spec = bench.core_spec()
            if suffix:
                from dataclasses import replace

                spec = replace(spec, name=spec.name + suffix)
            specs.append(spec)
    return specs


def mix_paper_workload(name: str, copies: int = 1) -> Workload:
    """Model-level workload using the paper's Table III reference values."""
    wl = Workload.of(name, [b.paper_profile() for b in mix_benchmarks(name)])
    return wl.replicated(copies, name=f"{name}x{copies}") if copies > 1 else wl
