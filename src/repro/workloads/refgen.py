# reprolint: disable-file=dead-code
# Paper content: reference streams for the footnote-1 shared-L2
# extension (Sec. IV-A), run by examples/shared_l2_partitioning.py.
"""Reference-stream generators + first-principles APKI calibration.

The mainline experiments parameterize each benchmark's off-chip miss
stream directly from Table III.  This module closes the loop one level
deeper: it synthesizes *cache-level* reference streams (loads/stores
with a working set and a streaming component), filters them through the
Table II cache hierarchy (:mod:`repro.sim.cache`), and reports the
resulting APKI -- demonstrating that a Table III-like characterization
emerges from raw references plus caches, not by fiat.

Stream model: a mixture of

* **hot working set** reuse (lines that fit mostly in cache -> hits),
* **streaming** sequential traversal of a large array (compulsory
  misses at line granularity), and
* a stores fraction (drives write-backs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cache import CacheHierarchy
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.util.validation import check_probability, check_positive

__all__ = ["RefStreamSpec", "ReferenceStream", "measure_apki"]


@dataclass(frozen=True)
class RefStreamSpec:
    """Statistical shape of a cache-level reference stream."""

    #: references per instruction (loads+stores; ~1/3 is typical)
    refs_per_instr: float = 0.35
    #: probability a reference goes to the streaming component
    streaming_fraction: float = 0.05
    #: distinct lines in the hot working set
    working_set_lines: int = 2048
    #: probability a reference is a store
    store_fraction: float = 0.3
    #: stride (in lines) of the streaming traversal
    stream_stride: int = 1

    def __post_init__(self) -> None:
        check_positive("refs_per_instr", self.refs_per_instr)
        check_probability("streaming_fraction", self.streaming_fraction)
        check_probability("store_fraction", self.store_fraction)
        check_positive("working_set_lines", self.working_set_lines)
        check_positive("stream_stride", self.stream_stride)


class ReferenceStream:
    """Seeded generator of (line address, is_store) references."""

    #: streaming region starts far above any plausible working set
    _STREAM_BASE = 1 << 30

    def __init__(self, spec: RefStreamSpec, rng: RngStream) -> None:
        self.spec = spec
        self.rng = rng
        self._stream_pos = 0

    def next_reference(self) -> tuple[int, bool]:
        spec = self.spec
        is_store = self.rng.random() < spec.store_fraction
        if self.rng.random() < spec.streaming_fraction:
            addr = self._STREAM_BASE + self._stream_pos
            self._stream_pos += spec.stream_stride
            return addr, is_store
        # Zipf-ish hot set: squaring a uniform biases toward low indices,
        # giving the temporal-locality skew real working sets show
        u = self.rng.random()
        idx = int(u * u * spec.working_set_lines)
        return idx, is_store


def measure_apki(
    spec: RefStreamSpec,
    *,
    instructions: int = 200_000,
    seed: int = 2013,
    hierarchy: CacheHierarchy | None = None,
    warmup_instructions: int = 50_000,
) -> float:
    """Filter a synthetic stream through L1/L2 and return the APKI.

    References are issued at ``refs_per_instr`` per instruction; the
    warmup fill is excluded so compulsory working-set misses don't skew
    the steady-state rate.
    """
    if instructions <= 0:
        raise ConfigurationError("instructions must be positive")
    h = hierarchy or CacheHierarchy()
    stream = ReferenceStream(spec, RngStream(seed, "refgen"))

    def run(n_instr: int) -> int:
        n_refs = int(n_instr * spec.refs_per_instr)
        for _ in range(n_refs):
            addr, store = stream.next_reference()
            h.access(addr, store)
        return n_refs

    run(warmup_instructions)
    start = h.offchip_accesses
    run(instructions)
    return (h.offchip_accesses - start) / instructions * 1000.0
