"""``repro-trace``: summarize a Chrome trace into a per-phase time table.

Reads the Chrome trace JSON that :func:`repro.obs.write_chrome_trace`
writes (``{"traceEvents": [...]}``): complete ("X") events are
aggregated, metadata and instant events ignored.

Usage::

    repro-trace run.trace.json [--sort total|mean|count|name] [--top N]
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["load_trace", "summarize", "render", "main"]


def load_trace(path: str) -> list[dict]:
    """Normalized span dicts {name, dur_us, cpu_us} of a Chrome trace.

    Raises ``ValueError`` when the file is not a Chrome trace.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            doc = None
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("not a Chrome trace: want one JSON object with a traceEvents list")
    spans: list[dict] = []
    for event in doc["traceEvents"]:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args", {})
        spans.append(
            {
                "name": event.get("name", "?"),
                "dur_us": float(event.get("dur", 0.0)),
                "cpu_us": float(args.get("cpu_ms", 0.0)) * 1000.0,
            }
        )
    return spans


def summarize(spans: list[dict]) -> list[dict]:
    """Per-phase aggregate rows: count, total/mean/max wall, total CPU."""
    phases: dict[str, dict] = {}
    for s in spans:
        row = phases.setdefault(
            s["name"],
            {"name": s["name"], "count": 0, "total_us": 0.0,
             "max_us": 0.0, "cpu_us": 0.0},
        )
        row["count"] += 1
        row["total_us"] += s["dur_us"]
        row["cpu_us"] += s["cpu_us"]
        if s["dur_us"] > row["max_us"]:
            row["max_us"] = s["dur_us"]
    out = list(phases.values())
    for row in out:
        row["mean_us"] = row["total_us"] / row["count"] if row["count"] else 0.0
    return out


def render(rows: list[dict], *, sort: str = "total", top: int | None = None) -> str:
    """The per-phase table (total time is the default ranking)."""
    key = {
        "total": lambda r: -r["total_us"],
        "mean": lambda r: -r["mean_us"],
        "count": lambda r: -r["count"],
        "name": lambda r: r["name"],
    }[sort]
    rows = sorted(rows, key=key)
    if top is not None:
        rows = rows[:top]
    grand_total = sum(r["total_us"] for r in rows) or 1.0
    width = max([len(r["name"]) for r in rows] + [len("phase")])
    lines = [
        f"{'phase':<{width}}  {'count':>6}  {'total ms':>10}  "
        f"{'mean ms':>9}  {'max ms':>9}  {'cpu ms':>9}  {'%':>6}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<{width}}  {r['count']:>6}  "
            f"{r['total_us'] / 1000.0:>10.3f}  "
            f"{r['mean_us'] / 1000.0:>9.3f}  "
            f"{r['max_us'] / 1000.0:>9.3f}  "
            f"{r['cpu_us'] / 1000.0:>9.3f}  "
            f"{100.0 * r['total_us'] / grand_total:>5.1f}%"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-trace", description=__doc__)
    parser.add_argument("trace", help="Chrome trace JSON file")
    parser.add_argument(
        "--sort",
        choices=("total", "mean", "count", "name"),
        default="total",
        help="ranking column (default: total wall time)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N", help="show only N phases"
    )
    args = parser.parse_args(argv)
    try:
        spans = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro-trace: cannot read {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"repro-trace: no spans in {args.trace!r}", file=sys.stderr)
        return 1
    print(render(summarize(spans), sort=args.sort, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
