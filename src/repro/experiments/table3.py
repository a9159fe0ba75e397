"""Table III: benchmark characterization (alone-mode APKC / APKI).

Regenerates the paper's benchmark table by running every SPEC surrogate
standalone on the DDR2-400 system and reporting measured ``APKC_alone``,
``APKI`` and the resulting intensity class, next to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.plan import ProfilePoint
from repro.experiments.report import format_table
from repro.experiments.runner import Runner
from repro.workloads.spec import TABLE3

__all__ = ["Table3Row", "Table3Result", "points", "run", "render"]


@dataclass(frozen=True)
class Table3Row:
    name: str
    btype: str
    apkc_measured: float
    apkc_paper: float
    apki_measured: float
    apki_paper: float
    intensity: str

    @property
    def apkc_error(self) -> float:
        return abs(self.apkc_measured - self.apkc_paper) / self.apkc_paper


@dataclass(frozen=True)
class Table3Result:
    rows: tuple[Table3Row, ...]

    @property
    def worst_apkc_error(self) -> float:
        return max(r.apkc_error for r in self.rows)

    def row(self, name: str) -> Table3Row:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _classify(apkc: float) -> str:
    if apkc > 8.0:
        return "high"
    if apkc > 4.0:
        return "middle"
    return "low"


def points(cfg_for):
    """One alone-mode profile per Table III benchmark."""
    cfg = cfg_for()
    return [ProfilePoint(name, cfg) for name in TABLE3], 0


def run(runner: Runner) -> Table3Result:
    """Measure every benchmark standalone and build the table."""
    rows = []
    for bench in TABLE3.values():
        spec = bench.core_spec()
        apc, ipc = runner.alone_point(spec)
        apki = (apc / ipc) * 1000.0 if ipc > 0 else float("inf")
        rows.append(
            Table3Row(
                name=bench.name,
                btype=bench.btype,
                apkc_measured=apc * 1000.0,
                apkc_paper=bench.apkc_alone,
                apki_measured=apki,
                apki_paper=bench.apki,
                intensity=_classify(apc * 1000.0),
            )
        )
    return Table3Result(rows=tuple(rows))


def render(result: Table3Result) -> str:
    headers = [
        "name", "type", "APKC(sim)", "APKC(paper)", "APKI(sim)",
        "APKI(paper)", "intensity",
    ]
    rows = [
        [
            r.name, r.btype, r.apkc_measured, r.apkc_paper,
            r.apki_measured, r.apki_paper, r.intensity,
        ]
        for r in result.rows
    ]
    table = format_table(
        headers, rows, title="Table III: benchmark classification (measured vs paper)"
    )
    return f"{table}\n\nworst APKC error: {result.worst_apkc_error * 100:.2f}%"
