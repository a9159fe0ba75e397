"""Unit tests for validation helpers and the error hierarchy."""

import numpy as np
import pytest

from repro.util.errors import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    SimulationError,
)
from repro.util.validation import (
    as_float_array,
    check_positive,
    check_probability,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigurationError, InfeasibleError, SimulationError):
            assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise InfeasibleError("x")


class TestCheckers:
    def test_check_positive_passthrough(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", bad)

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_check_probability_accepts(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_check_probability_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)


class TestAsFloatArray:
    def test_converts_list(self):
        arr = as_float_array("v", [1, 2, 3])
        assert arr.dtype == float
        np.testing.assert_allclose(arr, [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            as_float_array("v", np.ones((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            as_float_array("v", [1.0, float("nan")])
