"""Tests for the model-only predicted grid (experiments.predicted)."""

import pytest

from repro.experiments import predicted
from repro.experiments.figure2 import OPTIMAL_FOR
from repro.util.errors import ConfigurationError

TEST_MIXES = ("hetero-5", "hetero-6", "homo-1")


@pytest.fixture(scope="session")
def pred():
    return predicted.run(mixes=TEST_MIXES)


class TestPredictedGrid:
    def test_structure(self, pred):
        assert set(pred.grid) == set(TEST_MIXES)
        for row in pred.grid.values():
            assert set(row) == {
                "equal", "prop", "sqrt", "twothirds", "prio_apc", "prio_api",
            }

    def test_baseline_is_one(self, pred):
        for mix in TEST_MIXES:
            for metric, value in pred.grid[mix]["equal"].items():
                assert value == pytest.approx(1.0)

    def test_optimal_schemes_win_predicted_grid(self, pred):
        """The model's own grid must rank its derived optima first."""
        hetero = tuple(m for m in TEST_MIXES if m.startswith("hetero"))
        for metric, winner in OPTIMAL_FOR.items():
            values = {
                s: pred.average(hetero, s, metric)
                for s in pred.grid[hetero[0]]
            }
            best = max(values, key=values.get)
            if winner.startswith("prio"):
                assert best.startswith("prio")
            else:
                assert best == winner, values

    def test_instantaneous(self):
        """The whole 14-mix predicted grid runs no simulation."""
        from repro import obs

        before = obs.registry().get_value("engine.runs")
        predicted.run()
        assert obs.registry().get_value("engine.runs") == before

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            predicted.run(total_bandwidth=0.0)

    def test_render(self, pred):
        text = predicted.render(pred)
        assert "no simulation" in text
        assert "hetero-5" in text


class TestAgreementWithSimulation:
    def test_prediction_tracks_simulation(self, mvs_card):
        """Row (c) of the model-vs-simulator card: Table III profiles at
        B = 0.0094 predict every run's per-app APC within 10% under the
        share schemes and within 25% under the priority schemes, on
        every Figure 2 mix.  (At 200k + 1M cycles the maxima read 6.8%
        and 20.4%.)"""
        from repro.experiments.ablation import SHARE_SCHEMES

        bounds = {s: 0.10 for s in SHARE_SCHEMES}
        bounds.update(prio_apc=0.25, prio_api=0.25)
        for scheme, bound in bounds.items():
            errors = mvs_card.errors("table3", scheme)
            assert len(errors) == 14
            assert max(errors.values()) <= bound, (scheme, errors)
