# reprolint: disable-file=dead-code
# Paper content: the Table II caches behind the footnote-1 shared-L2
# extension (Sec. IV-A), run by examples/shared_l2_partitioning.py.
"""Functional set-associative cache hierarchy (Table II's private L1/L2).

The analytical model needs each application's *off-chip* access rate per
instruction (API), which in the paper comes from real programs filtered
through a private 32 KB L1D and 256 KB L2 (Table II).  This module
provides that filter: a write-back/write-allocate, LRU, set-associative
cache model that turns a raw reference stream into the L2 miss (plus
writeback) stream.

It is *functional* (hit/miss + state, no timing): timing lives in the
DRAM model, and API -- the quantity the model consumes -- is a purely
functional property.  The calibration utility in
:mod:`repro.workloads.refgen` uses it to derive Table III-like APKI
values from first principles; the mainline experiments parameterize the
miss stream directly (see DESIGN.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.validation import check_positive

__all__ = ["CacheConfig", "Cache", "CacheHierarchy", "AccessOutcome"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)
        check_positive("ways", self.ways)
        check_positive("line_bytes", self.line_bytes)
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError(
                "size_bytes must be divisible by ways * line_bytes"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one hierarchy access."""

    #: "l1", "l2" or "memory"
    hit_level: str
    #: a dirty L2 line was evicted (an off-chip writeback)
    writeback: bool

    @property
    def is_offchip(self) -> bool:
        return self.hit_level == "memory"


class Cache:
    """One write-back/write-allocate LRU cache level.

    Sets are ``OrderedDict`` instances (tag -> dirty flag) in LRU order:
    the guide-recommended "simple legible" structure; ``move_to_end`` is
    O(1) and this functional model is not on the simulator's hot path.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, line_addr: int) -> tuple[OrderedDict[int, bool], int]:
        set_idx = line_addr % self.config.n_sets
        tag = line_addr // self.config.n_sets
        return self._sets[set_idx], tag

    def access(self, line_addr: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one line.

        Returns ``(hit, evicted_dirty_line_addr_or_None)``.  On a miss
        the line is allocated (write-allocate) and the LRU victim -- if
        dirty -- is reported for write-back to the next level.
        """
        s, tag = self._locate(line_addr)
        set_idx = line_addr % self.config.n_sets
        if tag in s:
            self.hits += 1
            s.move_to_end(tag)
            if is_write:
                s[tag] = True
            return True, None
        self.misses += 1
        victim: int | None = None
        if len(s) >= self.config.ways:
            victim_tag, victim_dirty = s.popitem(last=False)
            if victim_dirty:
                self.writebacks += 1
                victim = victim_tag * self.config.n_sets + set_idx
        s[tag] = is_write
        return False, victim

    def contains(self, line_addr: int) -> bool:
        s, tag = self._locate(line_addr)
        return tag in s

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheHierarchy:
    """Private L1D + unified private L2 (Table II defaults).

    ``access`` filters one reference; off-chip traffic is every L2 miss
    plus every dirty L2 eviction (the reads-and-writes ``N_accesses`` of
    Sec. IV-C).
    """

    def __init__(
        self,
        l1: CacheConfig | None = None,
        l2: CacheConfig | None = None,
    ) -> None:
        self.l1 = Cache(l1 or CacheConfig(size_bytes=32 * 1024, ways=2))
        self.l2 = Cache(l2 or CacheConfig(size_bytes=256 * 1024, ways=8))
        self.offchip_reads = 0
        self.offchip_writes = 0
        self.references = 0

    def access(self, line_addr: int, is_write: bool = False) -> AccessOutcome:
        """Run one reference through L1 then L2 (inclusive-ish model:
        L1 misses allocate in both levels; L1 dirty victims update L2)."""
        self.references += 1
        l1_hit, l1_victim = self.l1.access(line_addr, is_write)
        if l1_hit:
            return AccessOutcome(hit_level="l1", writeback=False)
        if l1_victim is not None:
            # write the dirty L1 victim into L2 (hit or allocate)
            _, l2_victim = self.l2.access(l1_victim, True)
            if l2_victim is not None:
                self.offchip_writes += 1
        l2_hit, l2_victim = self.l2.access(line_addr, is_write)
        writeback = False
        if l2_victim is not None:
            self.offchip_writes += 1
            writeback = True
        if l2_hit:
            return AccessOutcome(hit_level="l2", writeback=writeback)
        self.offchip_reads += 1
        return AccessOutcome(hit_level="memory", writeback=writeback)

    @property
    def offchip_accesses(self) -> int:
        """Reads + writebacks: the paper's ``N_accesses``."""
        return self.offchip_reads + self.offchip_writes

    def apki(self, instructions: float) -> float:
        """Off-chip accesses per kilo-instruction given a retire count."""
        if instructions <= 0:
            raise ConfigurationError("instructions must be positive")
        return self.offchip_accesses / instructions * 1000.0
