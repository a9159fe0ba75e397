"""Smoke tests: every script in ``examples/`` runs end to end.

Each example is executed exactly as a user would run it.  The list is
the directory itself, so a deleted module cannot leave a broken example
behind, and the paper modules that only an example runs stay working.
"""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 200  # produced a real report


def test_quickstart_output_mentions_all_schemes(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    for token in ("Square_root", "Proportional", "Priority_APC", "Priority_API"):
        assert token in out


def test_frontier_output_names_knee(capsys):
    runpy.run_path(
        str(EXAMPLES / "fairness_throughput_frontier.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "knee" in out
    assert "Pareto frontier" in out


def test_all_examples_exist():
    """The README's example list names exactly the scripts that exist."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^\* `(\w+\.py)` — ", readme, flags=re.MULTILINE))
    assert listed == set(SCRIPTS)
