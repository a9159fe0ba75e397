"""DRAM system facade: address decode + per-channel timing.

This is the seam the memory controller talks to; it hides channel/bank
lookup and accumulates system-wide statistics.  It replaces DRAMSim2 in
the paper's GEM5+DRAMSim2 stack.
"""

from __future__ import annotations

from repro.sim.dram.address import AddressMapper
from repro.sim.dram.channel import Channel, IssueResult
from repro.sim.dram.config import DRAMConfig
from repro.sim.request import Request

__all__ = ["DRAMSystem"]


class DRAMSystem:
    """All channels of the off-chip memory system."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.mapper = AddressMapper(config)
        self.channels = [Channel(config, i) for i in range(config.n_channels)]

    # ------------------------------------------------------------------
    def decode(self, request: Request) -> None:
        """Fill the request's DRAM coordinates from its line address."""
        d = self.mapper.decode(request.line_addr)
        request.channel = d.channel
        request.bank = self.mapper.bank_index(d)
        request.row = d.row

    def bank_ready_by(self, request: Request, now: float, deadline: float) -> bool:
        """Scheduler readiness probe (bank timing only; see Channel)."""
        ch = self.channels[request.channel]
        return ch.bank_ready_by(request.bank, request.row, now, deadline)

    def is_row_hit(self, request: Request) -> bool:
        """FR-FCFS hint: does the request hit an open row right now?"""
        ch = self.channels[request.channel]
        return ch.is_row_hit(request.bank, request.row)

    def bus_free(self, channel: int = 0) -> float:
        return self.channels[channel].bus_free

    def issue(self, request: Request, now: float) -> IssueResult:
        """Commit the request to its channel; stamp its timing."""
        ch = self.channels[request.channel]
        result = ch.issue(request, now)
        request.issued = now
        request.completed = result.data_end + self.config.mc_cycles
        return result

    # ------------------------------------------------------------------
    @property
    def total_served(self) -> int:
        return sum(ch.n_served for ch in self.channels)

    def bus_utilization(self, window_cycles: float) -> float:
        """Mean data-bus utilization across channels."""
        if not self.channels:
            return 0.0
        return sum(ch.utilization(window_cycles) for ch in self.channels) / len(
            self.channels
        )

    def row_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate (meaningful for open-page)."""
        hits = sum(b.n_row_hits for ch in self.channels for b in ch.banks)
        total = sum(b.n_accesses for ch in self.channels for b in ch.banks)
        return hits / total if total else 0.0
