"""Exporter: Chrome trace-event JSON."""

from __future__ import annotations

import json

from repro import obs


def _make_spans(n=3):
    for i in range(n):
        with obs.span(f"phase{i}", attrs={"i": i}):
            pass
    return obs.tracer().spans()


class TestChromeTrace:
    def test_structure_is_trace_event_format(self):
        spans = _make_spans()
        doc = obs.chrome_trace(spans)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        for e in xs:
            # required complete-event fields
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
            assert e["args"]["span_id"] is not None
        # per-pid process_name metadata for Perfetto's process rail
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert metas and metas[0]["args"]["name"].startswith("repro:")

    def test_parent_ids_travel_in_args(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        doc = obs.chrome_trace(obs.tracer().spans())
        by = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by["inner"]["args"]["parent_id"] == by["outer"]["args"]["span_id"]

    def test_write_creates_parent_dirs_and_loads_back(self, tmp_path):
        spans = _make_spans()
        path = tmp_path / "nested" / "run.trace.json"
        obs.write_chrome_trace(path, spans)
        doc = json.loads(path.read_text())
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 3

