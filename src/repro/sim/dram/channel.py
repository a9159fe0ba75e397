"""Channel-level timing: data-bus arbitration + bank command scheduling.

The channel owns its banks and the shared data bus.  A request issued at
cycle ``t`` proceeds as:

close-page (paper baseline)
    activate at ``max(t, bank.ready)`` -> data transfer may start after
    ``tRCD + CL`` and once the data bus is free -> bus occupied for
    ``burst`` cycles -> auto-precharge: bank ready again ``tRP`` (plus
    ``tWR`` for writes) after the transfer ends.

open-page (for FR-FCFS studies)
    row hit: skip the activate (pay only ``CL``); row conflict: precharge
    (``tRP``) then activate; row empty: activate only.  The row stays
    latched afterwards.

The model intentionally simplifies DDR2 command-bus contention and
rank-to-rank turnaround: the data bus is the throughput bottleneck being
studied (one 64 B line per ``burst_cycles``), and bank timing captures
the bank-conflict effects that matter for partitioning behaviour.
"""

from __future__ import annotations

from repro.sim.dram.bank import Bank
from repro.sim.dram.config import DRAMConfig
from repro.sim.request import Request
from repro.util.errors import SimulationError

__all__ = ["Channel"]


class Channel:
    """One DRAM channel: banks + data bus.

    Timing scalars are copied out of the config at construction and the
    close-page command path (the paper's baseline) is special-cased: the
    channel is touched a handful of times per data burst, every ~100 CPU
    cycles, so dataclass field lookups on ``DRAMConfig`` were a
    measurable slice of the event loop.
    """

    __slots__ = (
        "config",
        "index",
        "banks",
        "bus_free",
        "bus_busy_cycles",
        "_last_was_write",
        "_next_refresh",
        "n_refreshes",
        "_close_page",
        "_burst",
        "_act_to_data",
        "_cl",
        "_trp",
        "_twr",
        "_twtr",
        "_trtw",
        "_trefi",
        "_trfc",
    )

    def __init__(self, config: DRAMConfig, index: int = 0) -> None:
        self.config = config
        self.index = index
        n = config.n_ranks * config.n_banks
        self.banks = [Bank(i) for i in range(n)]
        #: cycle at which the data bus becomes free
        self.bus_free: float = 0.0
        #: total cycles the data bus has been occupied (for utilization)
        self.bus_busy_cycles: float = 0.0
        #: was the last data burst a write? (bus-turnaround tracking)
        self._last_was_write: bool | None = None
        #: cycle of the next periodic refresh (inf when disabled)
        self._next_refresh: float = (
            config.trefi_cycles if config.trefi_cycles > 0 else float("inf")
        )
        self.n_refreshes: int = 0
        # hot-path copies of the timing parameters
        self._close_page = config.page_policy == "close"
        self._burst = config.burst_cycles
        self._act_to_data = config.trcd_cycles + config.cl_cycles
        self._cl = config.cl_cycles
        self._trp = config.trp_cycles
        self._twr = config.twr_cycles
        self._twtr = config.twtr_cycles
        self._trtw = config.trtw_cycles
        self._trefi = config.trefi_cycles
        self._trfc = config.trfc_cycles

    # ------------------------------------------------------------------
    def _command_timing(self, bank: Bank, row: int, now: float) -> tuple[float, bool, bool]:
        """Earliest cycle data may leave the bank, ignoring the bus.

        Returns ``(earliest_data, activated, row_hit)``.
        """
        start = max(now, bank.ready_time)
        if self._close_page:
            return start + self._act_to_data, True, False
        # open-page
        open_row = bank.open_row
        if open_row == row and open_row is not None:
            return start + self._cl, False, True
        if open_row is None:
            return start + self._act_to_data, True, False
        # row conflict: precharge, then activate
        return start + self._trp + self._act_to_data, True, False

    def _turnaround(self, is_write: bool) -> float:
        """Bus turnaround penalty for switching burst direction."""
        if self._last_was_write is None or self._last_was_write == is_write:
            return 0.0
        return self._twtr if self._last_was_write else self._trtw

    def _apply_refresh(self, data_start: float) -> float:
        """Delay ``data_start`` past any refresh blackout it collides with.

        Refresh is modelled as a periodic all-bank blackout of
        ``trfc_cycles`` every ``trefi_cycles``: a burst that would overlap
        the blackout is pushed past it.  Catch-up is lazy (driven by
        traffic), which is accurate enough for throughput accounting.
        """
        while data_start + self._burst > self._next_refresh:
            if data_start >= self._next_refresh + self._trfc:
                # traffic gap already covered this blackout; advance it
                self._next_refresh += self._trefi
                self.n_refreshes += 1
                continue
            data_start = self._next_refresh + self._trfc
            self._next_refresh += self._trefi
            self.n_refreshes += 1
        return data_start

    def earliest_data_start(
        self, bank_index: int, row: int, now: float, *, is_write: bool = False
    ) -> float:
        """When could a request to this bank begin its data transfer?"""
        bank = self.banks[bank_index]
        earliest, _, _ = self._command_timing(bank, row, now)
        return max(earliest, self.bus_free + self._turnaround(is_write))

    def bank_ready_by(self, bank_index: int, row: int, now: float, deadline: float) -> bool:
        """Could this bank deliver data by ``deadline``? (bus ignored).

        This is the scheduler's readiness probe: it deliberately excludes
        bus-turnaround penalties so request *direction* does not leak
        into readiness -- otherwise every policy would silently batch
        reads/writes and dodge the turnaround cost entirely.
        """
        bank = self.banks[bank_index]
        if self._close_page:
            ready = bank.ready_time
            start = now if now > ready else ready
            return start + self._act_to_data <= deadline + 1e-9
        earliest, _, _ = self._command_timing(bank, row, now)
        return earliest <= deadline + 1e-9

    def is_row_hit(self, bank_index: int, row: int) -> bool:
        """Would this request hit the open row right now? (FR-FCFS hint)"""
        return self.banks[bank_index].is_row_hit(row)

    # ------------------------------------------------------------------
    def issue(self, request: Request, now: float) -> float:
        """Commit one request; advance bank and bus state; return the
        cycle its data transfer ends (the new ``bus_free``).

        Raises :class:`SimulationError` on protocol violations (issuing
        into the past), which would indicate an engine bug.
        """
        if now < 0:
            raise SimulationError(f"issue at negative cycle {now}")
        bank = self.banks[request.bank]
        is_write = request.is_write
        close_page = self._close_page
        if close_page:
            # _command_timing's close-page case, inlined
            ready = bank.ready_time
            earliest_data = (now if now > ready else ready) + self._act_to_data
        else:
            earliest_data, activated, row_hit = self._command_timing(
                bank, request.row, now
            )
        # _turnaround, inlined: a direction switch delays the bus
        bus_free = self.bus_free
        last = self._last_was_write
        if last is None or last == is_write:
            bus_earliest = bus_free
        else:
            bus_earliest = bus_free + (self._twtr if last else self._trtw)
        data_start = (
            earliest_data if earliest_data > bus_earliest else bus_earliest
        )
        if data_start + self._burst > self._next_refresh:
            data_start = self._apply_refresh(data_start)
        data_end = data_start + self._burst
        if data_start < bus_free - 1e-9:
            raise SimulationError("data bus double-booked")

        recovery = self._twr if is_write else 0.0
        if close_page:
            # auto-precharge: the row never stays open
            bank.ready_time = data_end + recovery + self._trp
            bank.n_activates += 1
        else:
            # Row remains open.  Column commands to an open row pipeline:
            # the next CAS may issue while this burst is still on the bus,
            # so a following row *hit* can start its data back-to-back
            # (ready + CL == data_end).  Writes add recovery before the
            # bank accepts anything else.
            bank.ready_time = max(data_start, data_end + recovery - self._cl)
            bank.open_row = request.row
            if activated:
                bank.n_activates += 1
            if row_hit:
                bank.n_row_hits += 1
        bank.n_accesses += 1
        self.bus_free = data_end
        self.bus_busy_cycles += self._burst
        self._last_was_write = is_write
        return data_end

    # ------------------------------------------------------------------
    def utilization(self, window_cycles: float) -> float:
        """Fraction of the window the data bus was busy."""
        if window_cycles <= 0:
            return 0.0
        return min(1.0, self.bus_busy_cycles / window_cycles)
