"""DRAM system facade: the channels, plus system-wide statistics.

The engine drives each :class:`~repro.sim.dram.channel.Channel`
directly; this object owns them, answers FR-FCFS's row-hit question
per request, and aggregates the row-buffer statistics a
:class:`~repro.sim.stats.SimResult` reports.  It replaces DRAMSim2 in
the paper's GEM5+DRAMSim2 stack.
"""

from __future__ import annotations

from repro.sim.dram.channel import Channel
from repro.sim.dram.config import DRAMConfig
from repro.sim.request import Request

__all__ = ["DRAMSystem"]


class DRAMSystem:
    """All channels of the off-chip memory system."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.channels = [Channel(config, i) for i in range(config.n_channels)]

    def is_row_hit(self, request: Request) -> bool:
        """FR-FCFS hint: does the request hit an open row right now?"""
        ch = self.channels[request.channel]
        return ch.is_row_hit(request.bank, request.row)

    def row_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate (meaningful for open-page)."""
        hits = sum(b.n_row_hits for ch in self.channels for b in ch.banks)
        total = sum(b.n_accesses for ch in self.channels for b in ch.banks)
        return hits / total if total else 0.0
