"""Golden-fixture tests: each rule fires on its bad file, stays silent
on the clean counterpart.

The fixture tree under ``fixtures/proj/src/repro/`` mirrors the real
package layout so the rules' default path scoping applies exactly as it
does on the shipped tree.
"""

from __future__ import annotations

import pathlib

from repro.analysis import LintConfig, Severity, all_rules, analyze_paths

from tests.analysis.conftest import FIXTURES, rules_for


def test_fixture_tree_exists() -> None:
    assert (FIXTURES / "repro" / "core" / "bad_solver.py").is_file()


def test_all_errors_no_warnings_by_default(fixture_result) -> None:
    assert fixture_result.errors > 0
    assert fixture_result.warnings == 0
    assert all(d.severity is Severity.ERROR for d in fixture_result.diagnostics)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_wallclock_rule_fires(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_determinism.py")
    assert rules.count("det-wallclock") == 2  # time.time + datetime.now


def test_unseeded_rng_rule_fires(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_determinism.py")
    # np.random.seed, np.random.rand, random.random, bare default_rng()
    assert rules.count("det-unseeded-rng") == 4


def test_clean_determinism_is_silent(fixture_result) -> None:
    assert rules_for(fixture_result, "clean_determinism.py") == []


# ----------------------------------------------------------------------
# numerics
# ----------------------------------------------------------------------
def test_numerics_rules_fire(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_numerics.py")
    assert rules.count("num-errstate-ignore") == 1
    assert rules.count("num-float-eq") == 1
    assert rules.count("num-unguarded-div") == 2  # direct + via name


def test_clean_numerics_is_silent(fixture_result) -> None:
    assert rules_for(fixture_result, "clean_numerics.py") == []


# ----------------------------------------------------------------------
# IPC
# ----------------------------------------------------------------------
def test_ipc_rules_fire(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_ipc.py")
    assert rules.count("ipc-shm-unlink") == 1
    assert rules.count("ipc-mutable-default") == 1
    assert rules.count("ipc-atomic-write") == 1


def test_clean_ipc_is_silent(fixture_result) -> None:
    assert rules_for(fixture_result, "clean_ipc.py") == []


def test_seqlock_rule_fires(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_seqlock.py")
    # one torn write bracket + one tracker-adopted attach
    assert rules.count("ipc-seqlock") == 2


def test_clean_seqlock_is_silent(fixture_result) -> None:
    assert rules_for(fixture_result, "clean_seqlock.py") == []


# ----------------------------------------------------------------------
# exceptions
# ----------------------------------------------------------------------
def test_broad_except_rule_fires(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_except.py")
    assert rules.count("exc-broad") == 2  # except Exception + bare except


def test_clean_except_is_silent(fixture_result) -> None:
    # narrow catch, cleanup-and-raise, and future.set_exception transfer
    # are all acceptable
    assert rules_for(fixture_result, "clean_except.py") == []


# ----------------------------------------------------------------------
# invariants (call-graph)
# ----------------------------------------------------------------------
def test_unanchored_solver_is_flagged(fixture_result) -> None:
    rules = rules_for(fixture_result, "bad_solver.py")
    assert rules == ["inv-conservation"]


def test_anchored_solvers_pass(fixture_result) -> None:
    # direct call, helper indirection, and dict dispatch all anchor
    assert rules_for(fixture_result, "clean_solver.py") == []


# ----------------------------------------------------------------------
# scoping
# ----------------------------------------------------------------------
def test_scoped_rules_skip_out_of_scope_files(tmp_path: pathlib.Path) -> None:
    # the same wall-clock read outside repro/sim + repro/core is ignored
    out_of_scope = tmp_path / "repro" / "obs" / "timer.py"
    out_of_scope.parent.mkdir(parents=True)
    out_of_scope.write_text("import time\n\n\ndef now():\n    return time.time()\n")
    result = analyze_paths([tmp_path], LintConfig())
    assert [d.rule for d in result.diagnostics] == []


def test_rule_catalogue_is_complete() -> None:
    expected = {
        "det-wallclock",
        "det-unseeded-rng",
        "num-float-eq",
        "num-unguarded-div",
        "num-errstate-ignore",
        "ipc-shm-unlink",
        "ipc-atomic-write",
        "ipc-mutable-default",
        "ipc-seqlock",
        "inv-conservation",
        "dead-code",
        "exc-broad",
    }
    assert expected <= set(all_rules())
    for rule_id, rule_cls in all_rules().items():
        assert rule_cls.id == rule_id
        assert rule_cls.description, f"{rule_id} has no description"
