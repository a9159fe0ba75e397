"""Tests for the ASCII chart renderer (experiments.plot)."""

import pytest

from repro.experiments.plot import bar_chart, hbar
from repro.util.errors import ConfigurationError


class TestHbar:
    def test_full_scale(self):
        assert hbar(2.0, 2.0, width=10) == "#" * 10

    def test_half_scale(self):
        assert hbar(1.0, 2.0, width=10) == "#" * 5

    def test_zero(self):
        assert hbar(0.0, 2.0, width=10) == ""

    def test_clipped_at_width(self):
        assert hbar(5.0, 2.0, width=10) == "#" * 10

    def test_negative_treated_as_zero(self):
        assert hbar(-1.0, 2.0, width=10) == ""

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            hbar(1.0, 0.0)


class TestBarChart:
    def test_labels_and_values_present(self):
        text = bar_chart({"sqrt": 1.3, "equal": 1.25}, title="hsp")
        assert "hsp" in text
        assert "sqrt" in text and "equal" in text
        assert "1.300" in text and "1.250" in text

    def test_bars_proportional(self):
        text = bar_chart({"a": 2.0, "b": 1.0}, baseline=None, width=40)
        lines = [l for l in text.splitlines() if l.startswith(("a", "b"))]
        assert lines[0].count("#") == 2 * lines[1].count("#")

    def test_baseline_marker(self):
        text = bar_chart({"a": 2.0}, baseline=1.0, width=40)
        assert "|" in text.splitlines()[0]
        assert "baseline = 1.000" in text

    def test_baseline_omittable(self):
        text = bar_chart({"a": 2.0}, baseline=None)
        assert "baseline" not in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            bar_chart({})

    def test_longest_bar_fills_width(self):
        text = bar_chart({"big": 3.0, "small": 0.3}, baseline=None, width=20)
        big_line = next(l for l in text.splitlines() if l.startswith("big"))
        assert big_line.count("#") == 20

    def test_renders_real_figure1(self, runner):
        """The Figure 1 result renders as a chart without error."""
        from repro.experiments import figure1

        result = figure1.run(runner)
        series = {s: result.normalized[s]["hsp"] for s in result.normalized}
        text = bar_chart(series, title="Figure 1: hsp vs No_partitioning")
        assert "sqrt" in text


class TestLineSeries:
    def test_basic_layout(self):
        from repro.experiments.plot import line_series

        text = line_series(
            {"hsp": [1.0, 1.1], "minf": [1.5, 1.9]},
            ["3.2", "6.4"],
            title="T",
        )
        assert "T" in text
        assert "H=hsp" in text and "M=minf" in text
        assert "3.2" in text and "6.4" in text

    def test_markers_at_extremes(self):
        from repro.experiments.plot import line_series

        text = line_series({"a": [0.0, 10.0]}, ["x0", "x1"])
        lines = text.splitlines()
        top = lines[0]
        bottom = lines[-4]  # last data row before the axis
        assert "A" in top  # the max lands on the top row
        assert "A" in bottom  # the min lands on the bottom row

    def test_duplicate_initials_disambiguated(self):
        from repro.experiments.plot import line_series

        text = line_series(
            {"wsp": [1.0], "whatever": [2.0]}, ["p"],
        )
        legend = text.splitlines()[-1]
        assert "W=wsp" in legend
        assert "X=whatever" in legend

    def test_length_mismatch_rejected(self):
        from repro.experiments.plot import line_series
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            line_series({"a": [1.0]}, ["x", "y"])

    def test_empty_rejected(self):
        from repro.experiments.plot import line_series
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            line_series({}, ["x"])
