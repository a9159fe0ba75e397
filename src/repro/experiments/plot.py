"""Dependency-free ASCII bar charts for the paper's figures.

The paper's exhibits are bar charts; the text tables in
:mod:`repro.experiments.report` carry the numbers, and this module
renders the *shape* -- grouped horizontal bars scaled to a common axis,
with a reference line at the normalization baseline (1.0) -- so a
terminal user can see the figure, not just read it.

No plotting dependency is available offline; ASCII art is the honest
medium and diffs cleanly in regression logs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.util.errors import ConfigurationError

__all__ = ["hbar", "bar_chart", "line_series"]

_FULL = "#"
_BASELINE_MARK = "|"


def hbar(value: float, scale: float, width: int = 40) -> str:
    """One horizontal bar: ``value`` rendered at ``width`` chars ==
    ``scale``, clipped at the width."""
    if scale <= 0 or width <= 0:
        raise ConfigurationError("scale and width must be positive")
    n = int(round(max(value, 0.0) / scale * width))
    return _FULL * min(n, width)


def bar_chart(
    series: Mapping[str, float],
    *,
    title: str | None = None,
    width: int = 40,
    baseline: float | None = 1.0,
    value_fmt: str = "{:.3f}",
) -> str:
    """Labelled horizontal bars on a shared scale.

    ``baseline`` draws a vertical reference mark (the paper's figures
    normalize to No_partitioning = 1.0); pass ``None`` to omit it.
    """
    if not series:
        raise ConfigurationError("bar_chart needs at least one value")
    scale = max(max(series.values()), baseline or 0.0, 1e-12)
    label_w = max(len(k) for k in series)
    mark_pos = (
        int(round(baseline / scale * width)) if baseline is not None else None
    )
    lines = []
    if title:
        lines.append(title)
    for label, value in series.items():
        bar = hbar(value, scale, width).ljust(width)
        if mark_pos is not None and 0 <= mark_pos <= width:
            pos = min(mark_pos, width - 1)
            bar = bar[:pos] + _BASELINE_MARK + bar[pos + 1 :]
        lines.append(
            f"{label.ljust(label_w)}  {bar}  {value_fmt.format(value)}"
        )
    if mark_pos is not None:
        lines.append(
            " " * (label_w + 2)
            + " " * min(mark_pos, width - 1)
            + f"^ baseline = {value_fmt.format(baseline)}"
        )
    return "\n".join(lines)


def line_series(
    series: Mapping[str, Sequence[float]],
    x_labels: Sequence[str],
    *,
    title: str | None = None,
    height: int = 8,
    width_per_point: int = 14,
) -> str:
    """Multiple series over shared x positions, as a character plot.

    The Figure-4 layout: one marker letter per series, columns = scale
    points.  Values share one linear y-axis; each row is annotated with
    its y value.
    """
    if not series or not x_labels:
        raise ConfigurationError("line_series needs data and x labels")
    n = len(x_labels)
    for name, vals in series.items():
        if len(vals) != n:
            raise ConfigurationError(
                f"series {name!r} has {len(vals)} points, expected {n}"
            )
    lo = min(min(v) for v in series.values())
    hi = max(max(v) for v in series.values())
    span = max(hi - lo, 1e-12)
    markers = {}
    for name in series:
        markers[name] = name[0].upper() if name else "?"
        # disambiguate duplicate initials
        while (
            markers[name] in [m for k, m in markers.items() if k != name]
        ):
            markers[name] = chr(ord(markers[name]) + 1)

    rows = [[" "] * (n * width_per_point) for _ in range(height)]
    for name, vals in series.items():
        for i, v in enumerate(vals):
            r = height - 1 - int(round((v - lo) / span * (height - 1)))
            c = i * width_per_point + width_per_point // 2
            rows[r][c] = markers[name]

    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(rows):
        y = hi - (r / max(height - 1, 1)) * span
        lines.append(f"{y:8.3f} |" + "".join(row))
    axis = " " * 9 + "+" + "-" * (n * width_per_point)
    lines.append(axis)
    label_row = " " * 10
    for i, lab in enumerate(x_labels):
        cell = lab[: width_per_point - 1].center(width_per_point)
        label_row += cell
    lines.append(label_row)
    legend = "  ".join(f"{m}={name}" for name, m in markers.items())
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
