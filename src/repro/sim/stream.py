"""Synthetic off-chip access streams (trace-generator substrate).

Substitutes for SPEC CPU2006 reference-input traces: each application
gets a seeded :class:`MissAddressStream` producing the *line addresses*
of its off-chip accesses, with three tunable properties that matter to
the DRAM model:

* **footprint** -- how many distinct rows the app touches (per-app row
  ranges are disjoint so co-scheduled apps never share banks' rows);
* **row locality** -- probability that the next access falls in the same
  row at the next column (drives open-page row-hit rate; irrelevant to
  the paper's close-page baseline but exercised by the FR-FCFS tests);
* **bank spread** -- non-local accesses pick a uniformly random
  (rank, bank), spreading load across all banks as streaming/strided
  SPEC codes do after XOR-style controller interleaving.

The generators are deliberately stationary: the paper's model
characterizes each app by steady-state (API, APC_alone), so a stationary
stream is the faithful minimal substitute (see DESIGN.md).

Performance: every access draws a row-locality uniform (except the
first), and a non-local access also draws a (rank, bank, channel, row,
col) -- or (bank-set slot, channel, row, col) -- location.  When every
location bound is a power of two (the common case: geometry sizes are
validated to be powers of two and the default footprint is 512 rows),
both kinds of draw are taken from raw 64-bit PCG64 words, fetched
``_BLOCK`` at a time with one ``random_raw`` call and consumed in
order, which reproduces numpy's own recipes bit for bit:

* the uniform is ``(w >> 11) * 2**-53``, what ``Generator.random()``
  computes from one word;
* ``Generator.integers`` with a bound ``2**k <= 2**32`` consumes one
  32-bit half-word (low half of a word first, the high half buffered
  -- including across draws) and maps it through Lemire's
  multiply-shift, which for a power-of-two bound reduces to
  ``u32 >> (32 - k)`` with no rejection; a bound of 1 consumes nothing.

The draws run in one local-variable loop,
:meth:`MissAddressStream._generate`, which generates ``_AHEAD``
accesses per call (no Generator call, and no attribute traffic per
access); :meth:`MissAddressStream.next_access` pops them.  Reading
ahead is invisible: nothing else draws from a stream's generator, and
``current`` reports the last access *returned*, not the last one
generated.  The sequence is asserted against
a pre-change golden in ``tests/sim/test_stream_golden.py`` and
property-tested there against a fresh ``Generator``'s ``integers`` and
``random``.  Non-power-of-two bounds fall back to one vectorized
``integers`` call and a scalar ``random()`` per access; the choice is
per stream, so the two implementations never interleave on one bit
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.dram.address import AddressMapper, DecodedAddress
from repro.sim.dram.config import DRAMConfig
from repro.util.rng import RngStream
from repro.util.validation import check_probability

__all__ = ["StreamSpec", "MissAddressStream"]

#: raw 64-bit words fetched per ``random_raw`` call (power-of-two path)
_BLOCK = 256
#: accesses generated per refill of a stream's read-ahead block
_AHEAD = 64
#: ``Generator.random()`` maps the top 53 bits of a word onto [0, 1)
_UNIT = 2.0**-53


@dataclass(frozen=True)
class StreamSpec:
    """Statistical shape of one application's off-chip access stream."""

    #: probability that the next access continues in the current row
    row_locality: float = 0.5
    #: number of distinct rows in the app's working set
    footprint_rows: int = 512
    #: optional bank partitioning (application-aware channel/bank
    #: partitioning, Muralidhara et al. MICRO'11 -- cited in the paper's
    #: related work): restrict the app's accesses to these flat bank
    #: indices (rank-major within the channel).  ``None`` = all banks.
    bank_set: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_probability("row_locality", self.row_locality)
        if self.footprint_rows < 1:
            raise ValueError("footprint_rows must be >= 1")
        if self.bank_set is not None:
            if len(self.bank_set) == 0:
                raise ValueError("bank_set must not be empty")
            if len(set(self.bank_set)) != len(self.bank_set):
                raise ValueError("bank_set must not contain duplicates")
            if any(b < 0 for b in self.bank_set):
                raise ValueError("bank indices must be >= 0")


class MissAddressStream:
    """Seeded generator of line addresses for one application.

    Parameters
    ----------
    config:
        DRAM geometry (bank counts, row size) the addresses target.
    spec:
        Statistical shape of the stream.
    app_slot:
        Index carving out a disjoint row range for this app.
    rng:
        The app's dedicated random stream.
    """

    __slots__ = (
        "config",
        "spec",
        "rng",
        "mapper",
        "row_base",
        "row_span",
        "_last",
        "_frontier",
        "_col",
        "_ahead",
        "_bank_set",
        "_bounds",
        "_g",
        "_locality",
        "_last_col",
        "_n_banks",
        "_layout",
        "_col_step",
        "_plan",
        "_n_u32",
        "_halves",
        "_words",
        "_raw",
    )

    def __init__(
        self,
        config: DRAMConfig,
        spec: StreamSpec,
        app_slot: int,
        rng: RngStream,
    ) -> None:
        self.config = config
        self.spec = spec
        self.rng = rng
        self.mapper = AddressMapper(config)
        rows_total = self.mapper.row_space
        per_app = max(spec.footprint_rows, 1)
        self.row_base = (app_slot * per_app) % max(rows_total - per_app, 1)
        self.row_span = min(per_app, rows_total - self.row_base)
        #: the last access returned -- (line_addr, channel, flat bank,
        #: row); None before the first access
        self._last: tuple[int, int, int, int] | None = None
        #: the last access generated, and its column (the draw state)
        self._frontier: tuple[int, int, int, int] | None = None
        self._col = 0
        #: generated but not yet returned accesses, next one last
        self._ahead: list[tuple[int, int, int, int]] = []
        if spec.bank_set is not None:
            banks_per_channel = config.n_ranks * config.n_banks
            if any(b >= banks_per_channel for b in spec.bank_set):
                raise ValueError(
                    f"bank_set exceeds the {banks_per_channel} banks per channel"
                )
            self._bank_set: tuple[int, ...] | None = tuple(spec.bank_set)
            #: per-element bounds of one location draw:
            #: (bank-set slot, channel, row offset, column)
            bounds = [
                len(self._bank_set),
                config.n_channels,
                self.row_span,
                config.lines_per_row,
            ]
        else:
            self._bank_set = None
            #: (rank, bank, channel, row offset, column) bounds -- the
            #: exact scalar draw order of the original formulation
            bounds = [
                config.n_ranks,
                config.n_banks,
                config.n_channels,
                self.row_span,
                config.lines_per_row,
            ]
        self._bounds = np.array(bounds, dtype=np.int64)
        self._n_u32 = sum(1 for b in bounds if b > 1)
        # power-of-two path: per location field, the index of the
        # half-word it reads and the right shift mapping it into the
        # bound; a bound of 1 reads half-word 0 shifted out to zero
        # (consuming nothing)
        plan: list[tuple[int, int]] = []
        #: unread raw words, next word last (refilled by _refill); None
        #: selects the Generator fallback
        self._words: list[int] | None = None
        if self._n_u32 and all(
            0 < b <= 1 << 32 and b & (b - 1) == 0 for b in bounds
        ):
            drawn = 0
            for b in bounds:
                if b == 1:
                    plan.append((0, 32))
                else:
                    plan.append((drawn, 33 - b.bit_length()))
                    drawn += 1
            self._words = []
        self._plan = tuple(plan)
        #: leftover 32-bit half-words (mirrors PCG64's internal buffer)
        self._halves: list[int] = []
        # hot-path bindings (skip the RngStream wrapper per draw)
        self._g = rng.generator
        self._raw = rng.generator.bit_generator.random_raw
        self._locality = spec.row_locality
        self._last_col = config.lines_per_row - 1
        self._n_banks = config.n_banks
        m = self.mapper
        self._layout = (
            m._ch_shift,
            m._rank_shift,
            m._bank_shift,
            m._row_shift,
            m._col_shift,
        )
        self._col_step = 1 << m._col_shift

    def _refill(self) -> list[int]:
        """Fetch the next ``_BLOCK`` raw words (power-of-two path)."""
        words = self._raw(_BLOCK)[::-1].tolist()
        self._words = words
        return words

    def _uniform(self) -> float:
        """One row-locality uniform on the power-of-two path, as
        :meth:`_generate` draws it inline: ``Generator.random()``."""
        words = self._words or self._refill()
        return (words.pop() >> 11) * _UNIT

    def next_access(self) -> tuple[int, int, int, int]:
        """Produce the next access: (line_addr, channel, flat bank, row).

        The flat bank index is rank-major within the channel, matching
        :meth:`repro.sim.dram.address.AddressMapper.bank_index`, so the
        result can be stamped straight onto a request without a decode
        round-trip.  Accesses are generated ``_AHEAD`` at a time by
        :meth:`_generate`; this pops the next one.
        """
        ahead = self._ahead
        if not ahead:
            ahead = self._generate()
        last = self._last = ahead.pop()
        return last

    def _generate(self) -> list[tuple[int, int, int, int]]:
        """Generate the next ``_AHEAD`` accesses, next one last.

        Each access draws exactly what it drew one at a time: a
        row-locality uniform (after the first access), and a location
        when it leaves the row.  The frontier -- the last access
        generated and its column -- carries over between blocks.
        """
        words = self._words
        g = self._g
        last = self._frontier
        col = self._col
        locality = self._locality
        last_col = self._last_col
        col_step = self._col_step
        bank_set = self._bank_set
        n_banks = self._n_banks
        row_base = self.row_base
        ch_s, rank_s, bank_s, row_s, col_s = self._layout
        if words is not None:
            halves = self._halves
            n_u32 = self._n_u32
            plan = self._plan
        # filled from the back: the next access is last, so pop() takes it
        out: list = [None] * _AHEAD
        for i in range(_AHEAD - 1, -1, -1):
            if last is not None:
                if words is None:
                    u = g.random()
                else:
                    if not words:
                        words = self._refill()
                    u = (words.pop() >> 11) * _UNIT
                if u < locality and col < last_col:
                    # next column of the same row: only the col field moves
                    col += 1
                    last = out[i] = (last[0] + col_step, last[1], last[2], last[3])
                    continue
            if words is None:
                vals = g.integers(0, self._bounds).tolist()
            else:
                while len(halves) < n_u32:
                    if not words:
                        words = self._refill()
                    w = words.pop()
                    halves += (w & 0xFFFFFFFF, w >> 32)
                if bank_set is None:  # no comprehension: a call on 3.11
                    (j0, s0), (j1, s1), (j2, s2), (j3, s3), (j4, s4) = plan
                    vals = [halves[j0] >> s0, halves[j1] >> s1, halves[j2] >> s2,
                            halves[j3] >> s3, halves[j4] >> s4]
                else:
                    vals = [halves[j] >> s for j, s in plan]
                del halves[:n_u32]
            if bank_set is None:
                rank, bank, channel, row_off, col = vals
            else:
                slot, channel, row_off, col = vals
                rank, bank = divmod(bank_set[slot], n_banks)
            row = row_base + row_off
            addr = (
                (channel << ch_s)
                | (rank << rank_s)
                | (bank << bank_s)
                | (row << row_s)
                | (col << col_s)
            )
            last = out[i] = (addr, channel, rank * n_banks + bank, row)
        self._frontier = last
        self._col = col
        self._ahead = out
        return out

    def next_address(self) -> int:
        """Produce the next line address of the stream."""
        return self.next_access()[0]

    @property
    def current(self) -> DecodedAddress | None:
        """The coordinates of the most recently *returned* access (None
        before any); the generation frontier runs up to ``_AHEAD``
        accesses further."""
        if self._last is None:
            return None
        return self.mapper.decode(self._last[0])
