"""RunManifest provenance file and the repro-trace CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.obs import cli


class TestRunManifest:
    def test_create_stamps_environment(self):
        m = obs.RunManifest.create("fig2", {"scheme": "sqrt"}, argv=["x"])
        assert m.name == "fig2"
        assert m.config_digest  # hashed from config parts
        assert m.python
        assert m.argv == ["x"]
        assert m.created_unix > 0

    def test_digest_tracks_config_content(self):
        a = obs.RunManifest.create("r", {"k": 1})
        b = obs.RunManifest.create("r", {"k": 2})
        assert a.config_digest != b.config_digest

    def test_write_and_read_back(self, tmp_path):
        m = obs.RunManifest.create("fig2", argv=["prog"])
        m.add_timing("profile", 1.25)
        path = m.write(tmp_path / "out")
        assert path.name == "fig2.manifest.json"
        doc = json.loads(path.read_text())
        assert doc["name"] == "fig2"
        assert doc["timings_s"] == {"profile": 1.25}
        assert "python" in doc and "platform" in doc

    def test_git_revision_in_repo(self):
        # the test suite runs inside the repo, so a hash must come back
        rev = obs.git_revision()
        assert rev is None or len(rev.split("-")[0]) == 40


def _trace_file(tmp_path, fmt):
    for _ in range(3):
        with obs.span("solve"):
            pass
    with obs.span("serialize"):
        pass
    path = tmp_path / f"trace.{fmt}"
    if fmt == "json":
        obs.write_chrome_trace(path, obs.tracer().spans())
    else:
        path.write_text(
            "".join(
                json.dumps(dataclasses.asdict(s)) + "\n"
                for s in obs.tracer().spans()
            )
        )
    return path


class TestTraceCli:
    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    def test_summarizes_both_formats(self, tmp_path, capsys, fmt):
        path = _trace_file(tmp_path, fmt)
        assert cli.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "solve" in out and "serialize" in out

    def test_sort_and_top(self, tmp_path, capsys):
        path = _trace_file(tmp_path, "json")
        assert cli.main([str(path), "--sort", "count", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "solve" in out  # count 3 ranks first
        assert "serialize" not in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main([str(tmp_path / "nope.json")]) == 2

    def test_empty_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        assert cli.main([str(path)]) == 1

    def test_summarize_aggregates(self):
        rows = cli.summarize(
            [
                {"name": "a", "dur_us": 10.0, "cpu_us": 5.0},
                {"name": "a", "dur_us": 30.0, "cpu_us": 5.0},
                {"name": "b", "dur_us": 1.0, "cpu_us": 0.0},
            ]
        )
        by = {r["name"]: r for r in rows}
        assert by["a"]["count"] == 2
        assert by["a"]["total_us"] == 40.0
        assert by["a"]["mean_us"] == 20.0
        assert by["a"]["max_us"] == 30.0
