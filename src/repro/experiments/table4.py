"""Table IV: workload construction and heterogeneity (RSD).

Regenerates the paper's mix table: per mix, the member benchmarks and
the relative standard deviation of their ``APC_alone`` values; a mix is
heterogeneous iff RSD > 30 (paper Sec. V-C2).

Two RSD flavours are reported: from the paper's Table III reference
values (matching Table IV's printed numbers to two decimals, with the
single exception of homo-7 where the paper prints 29.71 but the
Table III inputs give 30.71 -- see EXPERIMENTS.md), and from our
simulator's measured alone-mode APCs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.apps import Workload, relative_std
from repro.experiments.plan import profile_points
from repro.experiments.report import format_table
from repro.experiments.runner import Runner
from repro.workloads.mixes import MIXES, mix_core_specs, mix_paper_workload

__all__ = ["Table4Row", "Table4Result", "PAPER_RSD", "points", "run", "render"]

#: Table IV's printed heterogeneity column
PAPER_RSD: dict[str, float] = {
    "homo-1": 12.27, "homo-2": 13.02, "homo-3": 18.55, "homo-4": 19.16,
    "homo-5": 19.74, "homo-6": 24.06, "homo-7": 29.71,
    "hetero-1": 41.93, "hetero-2": 45.10, "hetero-3": 47.92,
    "hetero-4": 50.31, "hetero-5": 52.99, "hetero-6": 58.31, "hetero-7": 69.84,
}


@dataclass(frozen=True)
class Table4Row:
    mix: str
    benchmarks: tuple[str, ...]
    rsd_paper_inputs: float
    rsd_measured: float
    rsd_printed: float

    @property
    def is_heterogeneous(self) -> bool:
        return self.mix.startswith("hetero")


@dataclass(frozen=True)
class Table4Result:
    rows: tuple[Table4Row, ...]

    def row(self, mix: str) -> Table4Row:
        for r in self.rows:
            if r.mix == mix:
                return r
        raise KeyError(mix)


def points(cfg_for):
    """The alone-mode profile of every mix's benchmarks."""
    return profile_points(tuple(MIXES), cfg_for()), 0


def run(runner: Runner) -> Table4Result:
    """Build the mix table with reference and measured RSDs."""
    rows = []
    for mix, members in MIXES.items():
        paper_wl: Workload = mix_paper_workload(mix)
        specs = mix_core_specs(mix)
        measured = [runner.alone_point(s)[0] for s in specs]
        rows.append(
            Table4Row(
                mix=mix,
                benchmarks=members,
                rsd_paper_inputs=paper_wl.heterogeneity,
                rsd_measured=relative_std(measured),
                rsd_printed=PAPER_RSD[mix],
            )
        )
    return Table4Result(rows=tuple(rows))


def render(result: Table4Result) -> str:
    headers = ["workload", "benchmarks", "RSD(paper)", "RSD(inputs)", "RSD(sim)"]
    rows = [
        [
            r.mix,
            "-".join(r.benchmarks),
            r.rsd_printed,
            r.rsd_paper_inputs,
            r.rsd_measured,
        ]
        for r in result.rows
    ]
    return format_table(
        headers,
        rows,
        title="Table IV: workload construction (heterogeneity as RSD of APC_alone)",
        float_fmt="{:.2f}",
    )
