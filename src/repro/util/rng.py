"""Deterministic random-number streams.

Every stochastic component of the simulator (per-core miss spacing, miss
address streams, read/write mix, ...) draws from its own named
:class:`RngStream` derived from a single root seed.  Two runs with the
same root seed are bit-identical regardless of component construction
order, which the reproduction experiments rely on.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngStream", "derive_seed"]

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    The derivation is stable across processes and Python versions (it
    avoids ``hash()``, which is salted): it mixes the CRC32 of the name
    into the root seed with a splitmix64-style finalizer.
    """
    x = (root_seed ^ (zlib.crc32(name.encode("utf-8")) * 0x9E3779B97F4A7C15)) & _MASK64
    # splitmix64 finalizer for avalanche
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngStream:
    """A named, seedable wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    root_seed:
        Root seed shared by the whole simulation run.
    name:
        Unique stream name, e.g. ``"core.3.miss_spacing"``.
    """

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.seed = derive_seed(root_seed, name)
        self._gen = np.random.default_rng(self.seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._gen

    def exponential(self, mean: float) -> float:
        """Draw one exponential variate with the given mean."""
        return float(self._gen.exponential(mean))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def geometric(self, p: float) -> int:
        """Draw one geometric variate (number of trials, >= 1)."""
        return int(self._gen.geometric(p))

    def random(self) -> float:
        return float(self._gen.random())

    def choice(self, n: int, p: np.ndarray | None = None) -> int:
        return int(self._gen.choice(n, p=p))

    def exponential_batch(self, mean: float, size: int) -> np.ndarray:
        """Draw ``size`` exponential variates at once (vectorized hot path)."""
        return self._gen.exponential(mean, size=size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r}, seed={self.seed:#x})"
