"""Smoke tests: the fast examples run end-to-end as scripts.

Simulation-heavy examples (qos_partitioning, simulator_validation,
trace_replay_workflow, shared_l2_partitioning) are exercised by the
integration suite through the same APIs; here we execute the fast
scripts (model-only, plus the sub-second online_adaptation simulation)
exactly as a user would.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "datacenter_consolidation.py",
    "fairness_throughput_frontier.py",
    "service_quickstart.py",
    "trace_quickstart.py",
    "online_adaptation.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
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
    expected = {
        "quickstart.py",
        "qos_partitioning.py",
        "datacenter_consolidation.py",
        "simulator_validation.py",
        "design_your_own_metric.py",
        "fairness_throughput_frontier.py",
        "trace_replay_workflow.py",
        "online_adaptation.py",
        "shared_l2_partitioning.py",
        "service_quickstart.py",
    }
    found = {p.name for p in EXAMPLES.glob("*.py")}
    assert expected <= found
