"""Export telemetry in the formats operators actually load.

* :func:`prometheus_text`  -- the text exposition format every scraper
  parses (``# TYPE`` headers, ``name{label="v"} value`` lines);
* :func:`spans_to_jsonl` / :func:`write_jsonl` -- one JSON object per
  span per line, greppable and streamable;
* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event format (``{"traceEvents": [...]}``), loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev.  Spans become
  complete ("X") events.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from typing import Iterable

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import SpanRecord

__all__ = [
    "prometheus_text",
    "spans_to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _escape_label_value(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_LABEL_RE.sub("_", k)}="{_escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for name, kind, labels, instrument in registry.series():
        pname = _prom_name(name)
        if pname not in seen_types:
            prom_kind = "summary" if kind == "histogram" else kind
            lines.append(f"# TYPE {pname} {prom_kind}")
            seen_types.add(pname)
        if kind == "histogram":
            snap = instrument.snapshot()
            lines.append(f"{pname}_count{_prom_labels(labels)} {snap['count']}")
            lines.append(f"{pname}_sum{_prom_labels(labels)} {snap['sum']}")
            lines.append(f"{pname}_min{_prom_labels(labels)} {snap['min']}")
            lines.append(f"{pname}_max{_prom_labels(labels)} {snap['max']}")
            for q in ("p50", "p90", "p99"):
                quantile = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}[q]
                lines.append(
                    f"{pname}{_prom_labels(dict(labels, quantile=quantile))} "
                    f"{snap[q]}"
                )
        else:
            lines.append(f"{pname}{_prom_labels(labels)} {instrument.snapshot()}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: Iterable[SpanRecord]) -> str:
    """One compact JSON object per span per line."""
    return "".join(
        json.dumps(dataclasses.asdict(s), separators=(",", ":")) + "\n"
        for s in spans
    )


def write_jsonl(path, spans: Iterable[SpanRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spans_to_jsonl(spans))


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def chrome_trace(
    spans: Iterable[SpanRecord],
    *,
    process_name: str = "repro",
) -> dict:
    """Chrome trace-event JSON for ``spans``.

    Timestamps are the spans' native microseconds (``perf_counter``
    based, comparable across the threads and forked workers of one
    machine).
    """
    events: list[dict] = []
    pids: set[int] = set()
    for s in spans:
        pids.add(s.pid)
        event = {
            "name": s.name,
            "ph": "X",
            "ts": s.ts_us,
            "dur": s.dur_us,
            "pid": s.pid,
            "tid": s.tid,
            "args": dict(
                s.attrs,
                span_id=s.span_id,
                parent_id=s.parent_id,
                cpu_ms=round(s.cpu_us / 1000.0, 3),
            ),
        }
        events.append(event)
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{process_name}:{pid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: Iterable[SpanRecord]) -> None:
    trace = chrome_trace(spans)
    directory = os.path.dirname(str(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
