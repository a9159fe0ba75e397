"""Tests for the reproduction scorecard (experiments.scorecard)."""

import pytest

from repro.experiments import scorecard
from repro.experiments.scorecard import Check, Scorecard


@pytest.fixture(scope="session")
def card(runner):
    return scorecard.run(runner)


class TestScorecard:
    def test_all_checks_pass(self, card):
        failing = [c.name for c in card.checks if not c.passed]
        assert card.passed, failing

    def test_check_count(self, card):
        assert len(card.checks) == 17

    def test_every_exhibit_represented(self, card):
        prefixes = {c.name.split(":")[0] for c in card.checks}
        assert prefixes == {
            "figure1", "figure2", "figure3", "table3", "table4",
            "model-vs-sim",
        }

    def test_model_check_covers_figure2_grid(self, card):
        """Share schemes gated per mix on all 14 mixes; the priority
        schemes and No_partitioning printed beside them, ungated."""
        (check,) = [c for c in card.checks if c.name.startswith("model-vs-sim")]
        assert "all 14 mixes" in check.evidence
        for scheme in ("nopart", "prio_apc", "prio_api"):
            assert scheme in check.evidence

    def test_evidence_is_populated(self, card):
        assert all(c.evidence for c in card.checks)

    def test_render(self, card):
        text = scorecard.render(card)
        assert "REPRODUCTION HEALTHY" in text
        assert text.count("[PASS]") == 17

    def test_render_failure_path(self):
        broken = Scorecard(
            checks=(Check(name="x", passed=False, evidence="nope"),)
        )
        text = scorecard.render(broken)
        assert "[FAIL]" in text
        assert "ATTENTION NEEDED" in text
        assert not broken.passed
        assert broken.n_passed == 0
