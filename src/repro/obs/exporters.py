"""Export spans in the Chrome trace-event format.

:func:`chrome_trace` / :func:`write_chrome_trace` build
``{"traceEvents": [...]}``, loadable in ``chrome://tracing`` and
https://ui.perfetto.dev.  Spans become complete ("X") events.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.obs.tracing import SpanRecord

__all__ = ["chrome_trace", "write_chrome_trace"]


# benchmarks/bench_obs.py and examples/trace_quickstart.py write their
# traces with write_chrome_trace, which renders them with this function.
def chrome_trace(  # reprolint: disable=dead-code
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


# benchmarks/bench_obs.py and examples/trace_quickstart.py import this.
def write_chrome_trace(  # reprolint: disable=dead-code
    path, spans: Iterable[SpanRecord]
) -> None:
    trace = chrome_trace(spans)
    directory = os.path.dirname(str(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
