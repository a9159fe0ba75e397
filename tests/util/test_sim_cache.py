"""Unit tests for the persistent profiling cache (repro.util.cache)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.sim.cpu import CoreSpec
from repro.sim.dram.config import DRAMConfig
from repro.sim.engine import SimConfig
from repro.util.cache import (
    CacheStats,
    SimCache,
    atomic_write_json,
    config_digest,
)


def _hammer_same_key(directory: str, writer_id: int, n_writes: int) -> None:
    """Worker: repeatedly overwrite one shared cache entry."""
    cache = SimCache(directory)
    for i in range(n_writes):
        cache.put(
            "shared-key",
            {"apc_alone": float(writer_id), "ipc_alone": float(i), "n": 64},
        )


class TestConfigDigest:
    def test_deterministic_for_equal_configs(self):
        a = config_digest("alone-point", SimConfig(seed=3))
        b = config_digest("alone-point", SimConfig(seed=3))
        assert a == b and len(a) == 64

    def test_digest_is_pinned(self):
        # every cached profiling run and sweep task is addressed by
        # this scheme; a moved digest silently orphans them all
        assert config_digest("alone-point", SimConfig(seed=3)) == (
            "43370bcda8ddbb191f999ac5184939de96cddb95010d7f87609dca392cfe6513"
        )

    def test_seed_changes_key(self):
        assert config_digest(SimConfig(seed=3)) != config_digest(SimConfig(seed=4))

    def test_same_name_different_timing_distinct(self):
        """The bug the digest fixes: two DRAM configs sharing a name but
        differing in a timing parameter must not share a cache entry."""
        fast = DRAMConfig(name="ddr", trcd_cycles=10.0)
        slow = DRAMConfig(name="ddr", trcd_cycles=20.0)
        assert config_digest(fast) != config_digest(slow)

    def test_nested_dataclass_fields_reach_the_key(self):
        base = CoreSpec(name="x", api=0.01, ipc_peak=1.0, mlp=8)
        tweaked = dataclasses.replace(
            base, stream=dataclasses.replace(base.stream, row_locality=0.9)
        )
        assert config_digest(base) != config_digest(tweaked)

    def test_purpose_tag_distinguishes_uses(self):
        cfg = SimConfig()
        assert config_digest("alone-point", cfg) != config_digest("other", cfg)

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            config_digest(object())


class TestSimCache:
    def test_round_trip(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.put("k1", {"apc_alone": 0.004, "ipc_alone": 0.5})
        assert cache.get("k1") == {"apc_alone": 0.004, "ipc_alone": 0.5}

    def test_missing_key_is_none(self, tmp_path):
        assert SimCache(tmp_path).get("nope") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.put("k", {"v": 1})
        cache.path_for("k").write_text("{ not json")
        assert cache.get("k") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.path_for("k").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("k").write_text(json.dumps([1, 2]))
        assert cache.get("k") is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = SimCache(tmp_path)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert cache.get("k") == {"v": 2}
        assert len(list(tmp_path.iterdir())) == 1

    def test_env_opt_out_disables_io(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = SimCache(tmp_path / "never")
        assert not cache.enabled
        cache.put("k", {"v": 1})
        assert cache.get("k") is None
        assert not (tmp_path / "never").exists()

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "diverted"))
        cache = SimCache()
        assert cache.directory == tmp_path / "diverted"

    def test_clear_removes_entries(self, tmp_path):
        cache = SimCache(tmp_path)
        for i in range(3):
            cache.put(f"k{i}", {"v": i})
        assert cache.clear() == 3
        assert cache.get("k0") is None
        assert cache.clear() == 0


class TestCacheStats:
    def test_fresh_stats_are_zero(self):
        stats = CacheStats()
        assert (stats.hits, stats.misses, stats.puts) == (0, 0, 0)
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_hit_miss_put_counting(self, tmp_path):
        cache = SimCache(tmp_path)
        assert cache.get("k") is None  # miss
        cache.put("k", {"v": 1})  # put
        assert cache.get("k") == {"v": 1}  # hit
        assert cache.get("k") == {"v": 1}  # hit
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hits == 2
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.put("k", {"v": 1})
        cache.path_for("k").write_text("{ not json")
        assert cache.get("k") is None
        assert cache.stats.misses == 1

    def test_disabled_cache_counts_misses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = SimCache(tmp_path)
        cache.put("k", {"v": 1})
        assert cache.get("k") is None
        assert cache.stats.puts == 0
        assert cache.stats.misses == 1

    def test_cache_stats_helper_shape(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.get("nope")
        cache.put("k", {"v": 1})
        cache.get("k")
        assert cache.cache_stats() == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "lookups": 2,
            "hit_rate": 0.5,
        }


class TestAtomicWriteJson:
    def test_returns_true_and_writes(self, tmp_path):
        path = tmp_path / "deep" / "value.json"
        assert atomic_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_failure_reports_false(self, tmp_path):
        target = tmp_path / "file-not-dir" / "x.json"
        (tmp_path / "file-not-dir").write_text("occupied")
        assert not atomic_write_json(target, {"a": 1})

    def test_no_temp_residue(self, tmp_path):
        for i in range(20):
            atomic_write_json(tmp_path / "v.json", {"i": i})
        assert [p.name for p in tmp_path.iterdir()] == ["v.json"]


class TestConcurrentWriters:
    """Two invocations profiling the same benchmark race on one entry
    file; readers must never observe a torn entry (the regression the
    atomic temp-file + rename in SimCache.put exists to prevent)."""

    def test_same_key_hammering_never_tears(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        n_writers, n_writes = 3, 40
        procs = [
            ctx.Process(
                target=_hammer_same_key, args=(str(tmp_path), w, n_writes)
            )
            for w in range(n_writers)
        ]
        for p in procs:
            p.start()
        reader = SimCache(tmp_path)
        observed = 0
        while any(p.is_alive() for p in procs):
            value = reader.get("shared-key")
            if value is not None:
                # a torn write would json-decode-fail (-> None) or lose
                # keys; every observed value must be complete
                assert set(value) == {"apc_alone", "ipc_alone", "n"}
                assert value["n"] == 64
                observed += 1
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert observed > 0  # the reader really raced the writers
        # the losing writers' temp files were cleaned up or renamed
        assert [p.name for p in tmp_path.iterdir()] == ["shared-key.json"]
        final = SimCache(tmp_path).get("shared-key")
        assert final is not None and final["ipc_alone"] == float(n_writes - 1)
