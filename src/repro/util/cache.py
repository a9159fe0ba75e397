"""Persistent, content-addressed cache for profiling simulations.

Alone-mode profiling runs (``APC_alone`` / ``IPC_alone`` measurement,
paper Sec. V-B) are pure functions of their configuration: the same
``CoreSpec`` + ``SimConfig`` (DRAM geometry/timings, windows, seed)
always produces the same numbers.  They are also the repeated cost when
regenerating figures -- every exhibit re-profiles the same ~16
benchmarks.  This module caches those results on disk, keyed by a
digest of the *full* configuration:

* :func:`config_digest` hashes a canonical JSON rendering of nested
  dataclasses (every field, recursively), so two configurations that
  differ in any parameter -- even two ``DRAMConfig`` s that share a
  ``name`` but differ in a timing -- get distinct keys.  A schema
  version is mixed in so cache entries are invalidated wholesale when
  the digest scheme changes.
* :class:`SimCache` stores one small JSON file per key and writes
  atomically (temp file + ``os.replace``) so concurrent writers -- e.g.
  two sweeps on the dispatcher in :mod:`repro.experiments.dispatch`
  racing on the same benchmark -- can never leave a torn file; last
  writer wins with an identical payload.

Environment:

``REPRO_CACHE_DIR``
    Overrides the cache directory (default:
    ``$XDG_CACHE_HOME/repro-bandwidth-model``, falling back to
    ``~/.cache/repro-bandwidth-model``).
``REPRO_NO_CACHE``
    Any non-empty value disables reads and writes entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any

__all__ = [
    "config_digest",
    "atomic_write_json",
    "default_cache_dir",
    "CacheStats",
    "SimCache",
    "SCHEMA_VERSION",
]

#: bump when the digest scheme or stored payload layout changes
SCHEMA_VERSION = 1

_APP_DIR = "repro-bandwidth-model"


#: types :func:`_canonical` returns unchanged (exact types: subclasses,
#: such as numpy's float64, take the generic path below)
_EXACT_SCALARS = frozenset({str, int, float, bool, type(None)})


def _canonical(obj: Any) -> Any:
    """Render a config object as plain JSON-able data, deterministically.

    Dataclasses are expanded field-by-field (recursively) and tagged
    with their class name so two different config types with identical
    fields cannot collide.
    """
    # fast paths, rendered exactly as the generic walk renders them:
    # request vectors are flat float lists or tuples
    cls = type(obj)
    if cls in _EXACT_SCALARS:
        return obj
    if (cls is list or cls is tuple) and all(type(v) is float for v in obj):
        return list(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "tolist"):  # numpy scalars/arrays, defensively
        return _canonical(obj.tolist())
    raise TypeError(f"cannot digest {type(obj).__name__!r} into a cache key")


def config_digest(*parts: Any) -> str:
    """SHA-256 digest of a sequence of configuration objects.

    Pass every input that influences the result (a purpose tag, the
    core spec, the sim config, ...); any field-level difference changes
    the digest.
    """
    payload = json.dumps(
        [SCHEMA_VERSION, [_canonical(p) for p in parts]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def atomic_write_json(path: pathlib.Path, value: Any) -> bool:
    """Write ``value`` as JSON to ``path`` atomically; returns success.

    The temp-file + ``os.replace`` dance guarantees a reader can never
    observe a torn file, and concurrent writers simply race on the
    final rename -- the loser's rename still succeeds (POSIX rename
    replaces) and the survivors' contents are complete either way.
    All I/O failures (including losing a directory-creation or
    permission race) are swallowed and reported as ``False``: callers
    treat these files as accelerators, never correctness dependencies.
    """
    path = pathlib.Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{path.stem[:16]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


def _default_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / _APP_DIR


def default_cache_dir() -> pathlib.Path:
    """The active cache directory (``REPRO_CACHE_DIR`` aware).

    Sidecar files that want to live next to the cache entries (e.g. the
    dispatcher's ``cost_model.json``) resolve their location through
    this, so one environment variable relocates everything together.
    """
    return _default_dir()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/put counters for one cache instance.

    ``hits``/``misses`` count :meth:`SimCache.get` outcomes (a disabled
    cache counts every lookup as a miss); ``puts`` counts successful
    stores.  Counters are cumulative over the instance's lifetime.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class SimCache:
    """On-disk key -> JSON-dict store for simulation results.

    Corrupt or unreadable entries behave as misses (the value is
    recomputable by construction), and all I/O errors on ``put`` are
    swallowed: the cache is an accelerator, never a correctness
    dependency.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str] | None = None,
        *,
        metric_name: str = "sim",
    ) -> None:
        self.enabled = not os.environ.get("REPRO_NO_CACHE")
        self.directory = pathlib.Path(directory) if directory else _default_dir()
        self.stats = CacheStats()
        # mirror the counters into the process-wide telemetry registry
        # (labelled per cache role, so /metrics and exporters see every
        # cache in the process under one metric family)
        from repro import obs

        reg = obs.registry()
        self._obs_hits = reg.counter("cache.hits", cache=metric_name)
        self._obs_misses = reg.counter("cache.misses", cache=metric_name)
        self._obs_puts = reg.counter("cache.puts", cache=metric_name)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` on any miss."""
        if not self.enabled:
            self.stats.misses += 1
            self._obs_misses.inc()
            return None
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                value = json.load(fh)
        except (OSError, ValueError):
            self.stats.misses += 1
            self._obs_misses.inc()
            return None
        if not isinstance(value, dict):
            self.stats.misses += 1
            self._obs_misses.inc()
            return None
        self.stats.hits += 1
        self._obs_hits.inc()
        return value

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Store ``value`` under ``key`` atomically (rename-into-place).

        Safe under concurrent writers: two ``repro-experiments``
        invocations profiling the same benchmark race on the same entry
        file, but each writes a private temp file and renames it into
        place, so readers only ever see a complete entry; the losing
        writer's rename simply replaces the winner's identical payload
        (asserted by the concurrency regression test in
        ``tests/util/test_sim_cache.py``).
        """
        if not self.enabled:
            return
        if atomic_write_json(self.path_for(key), value):
            self.stats.puts += 1
            self._obs_puts.inc()

    def clear(self) -> int:
        """Delete all cache entries; returns the number removed."""
        removed = 0
        try:
            entries = list(self.directory.glob("*.json"))
        except OSError:
            return 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def cache_stats(self) -> dict[str, float]:
        """Counter snapshot: ``{hits, misses, puts, lookups, hit_rate}``."""
        return self.stats.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"SimCache({str(self.directory)!r}, {state})"
