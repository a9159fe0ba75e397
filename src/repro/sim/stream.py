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

The draw is inlined into :meth:`MissAddressStream.next_access`, so an
access costs no Generator call.  Reading ahead is invisible: nothing
else draws from a stream's generator.  The sequence is asserted against
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
        "_col",
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
        #: the last access as returned -- (line_addr, channel, flat bank,
        #: row) -- and its column; None before the first access
        self._last: tuple[int, int, int, int] | None = None
        self._col = 0
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
        :meth:`next_access` draws it inline: ``Generator.random()``."""
        words = self._words or self._refill()
        return (words.pop() >> 11) * _UNIT

    def next_access(self) -> tuple[int, int, int, int]:
        """Produce the next access: (line_addr, channel, flat bank, row).

        The flat bank index is rank-major within the channel, matching
        :meth:`repro.sim.dram.address.AddressMapper.bank_index`, so the
        result can be stamped straight onto a request without a decode
        round-trip.
        """
        words = self._words
        last = self._last
        if last is not None:
            if words is None:
                u = self._g.random()
            else:
                if not words:
                    words = self._refill()
                u = (words.pop() >> 11) * _UNIT
            if u < self._locality and self._col < self._last_col:
                # next column of the same row: only the col field moves
                self._col += 1
                last = (last[0] + self._col_step, last[1], last[2], last[3])
                self._last = last
                return last
        bank_set = self._bank_set
        if words is None:
            vals = self._g.integers(0, self._bounds).tolist()
        else:
            halves = self._halves
            n_u32 = self._n_u32
            while len(halves) < n_u32:
                if not words:
                    words = self._refill()
                w = words.pop()
                halves += (w & 0xFFFFFFFF, w >> 32)
            if bank_set is None:  # no comprehension: a call on 3.11
                (j0, s0), (j1, s1), (j2, s2), (j3, s3), (j4, s4) = self._plan
                vals = [halves[j0] >> s0, halves[j1] >> s1, halves[j2] >> s2,
                        halves[j3] >> s3, halves[j4] >> s4]
            else:
                vals = [halves[j] >> s for j, s in self._plan]
            del halves[:n_u32]
        if bank_set is None:
            rank, bank, channel, row_off, col = vals
        else:
            slot, channel, row_off, col = vals
            rank, bank = divmod(bank_set[slot], self._n_banks)
        row = self.row_base + row_off
        ch_s, rank_s, bank_s, row_s, col_s = self._layout
        addr = (
            (channel << ch_s)
            | (rank << rank_s)
            | (bank << bank_s)
            | (row << row_s)
            | (col << col_s)
        )
        self._col = col
        last = self._last = (addr, channel, rank * self._n_banks + bank, row)
        return last

    def next_address(self) -> int:
        """Produce the next line address of the stream."""
        return self.next_access()[0]

    @property
    def current(self) -> DecodedAddress | None:
        """The coordinates of the most recent access (None before any)."""
        if self._last is None:
            return None
        _addr, channel, flat_bank, row = self._last
        rank, bank = divmod(flat_bank, self._n_banks)
        return DecodedAddress(
            channel=channel, rank=rank, bank=bank, row=row, col=self._col
        )
