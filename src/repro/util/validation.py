"""Small argument-validation helpers used across the package.

These raise :class:`~repro.util.errors.ConfigurationError` with a message
naming the offending parameter, so configuration mistakes fail fast and
readably instead of surfacing as NaNs deep inside an experiment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["check_positive", "check_probability"]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not (value > 0):  # catches NaN too
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def as_float_array(name: str, values: Sequence[float]) -> np.ndarray:
    """Convert to a 1-D float array, validating finiteness."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be finite, got {values!r}")
    return arr
