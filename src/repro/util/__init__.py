"""Shared utilities: errors, validation, RNG streams, persistent cache."""

from repro.util.cache import CacheStats, SimCache, config_digest
from repro.util.errors import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    SimulationError,
)
from repro.util.rng import RngStream
from repro.util.validation import check_positive, check_probability

__all__ = [
    "CacheStats",
    "SimCache",
    "config_digest",
    "ReproError",
    "ConfigurationError",
    "InfeasibleError",
    "SimulationError",
    "RngStream",
    "check_positive",
    "check_probability",
]
