"""DRAM timing/geometry configuration (paper Table II).

All times are expressed in *CPU cycles* (the simulator's single clock
domain).  The paper's baseline is an 8 GB DDR2-PC3200 part behind a
5 GHz CPU:

* 200 MHz bus clock, DDR -> 400 MT/s on an 8-byte data bus
  -> 3.2 GB/s peak -> a 64 B line takes 8 transfers = 4 bus clocks
  = 20 ns = 100 CPU cycles.
* tRP = tRCD = CL = 12.5 ns = 62.5 CPU cycles.
* close-page policy, 32 banks, address mapping channel/row/col/bank/rank.

The scalability experiment (paper Sec. VI-C) scales *only* the bus
frequency: 6.4 and 12.8 GB/s halve/quarter the burst time while leaving
tRP-tRCD-CL untouched, exactly as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.errors import ConfigurationError
from repro.util.validation import check_positive

__all__ = [
    "DRAMConfig",
    "ddr2_400",
    "ddr2_800",
    "ddr2_1600",
]


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry and timing of the off-chip memory system.

    Attributes
    ----------
    name:
        Human-readable label (e.g. ``DDR2-400``).
    n_channels, n_ranks, n_banks:
        Geometry; ``n_banks`` is banks *per rank*.  The paper's baseline
        has 32 DRAM banks total (1 channel, 4 ranks x 8 banks).
    row_bytes:
        Row (page) size in bytes, used by the address mapper.
    line_bytes:
        Transfer granularity -- the last-level-cache line size.
    burst_cycles:
        CPU cycles the data bus is occupied per line transfer.
    trp_cycles, trcd_cycles, cl_cycles, twr_cycles:
        Precharge / activate-to-read / CAS / write-recovery latencies.
    twtr_cycles, trtw_cycles:
        Data-bus turnaround penalties when a read burst follows a write
        burst and vice versa (the write-to-read turnover delay that
        Virtual Write Queue mitigates, paper Sec. II-A1).  These are the
        main reason a saturated DDR2 channel delivers ~94% rather than
        100% of its peak -- which is exactly where Table III's lbm sits.
    trefi_cycles, trfc_cycles:
        Refresh interval and refresh duration (all banks blocked);
        ``trefi_cycles = 0`` disables refresh.
    mc_cycles:
        Fixed memory-controller frontend+backend overhead added to every
        request's latency (queuing excluded).
    page_policy:
        ``"close"`` (paper baseline) or ``"open"`` (for FR-FCFS studies).
    address_map:
        Bit-field order, MSB first, matching Table II's
        ``channel/row/col/bank/rank``.
    """

    name: str = "DDR2-400"
    n_channels: int = 1
    n_ranks: int = 4
    n_banks: int = 8
    row_bytes: int = 8192
    line_bytes: int = 64
    burst_cycles: float = 100.0
    trp_cycles: float = 62.5
    trcd_cycles: float = 62.5
    cl_cycles: float = 62.5
    twr_cycles: float = 75.0
    twtr_cycles: float = 37.5
    trtw_cycles: float = 10.0
    trefi_cycles: float = 39_000.0
    trfc_cycles: float = 640.0
    mc_cycles: float = 50.0
    page_policy: str = "close"
    address_map: tuple[str, ...] = ("channel", "row", "col", "bank", "rank")

    def __post_init__(self) -> None:
        check_positive("n_channels", self.n_channels)
        check_positive("n_ranks", self.n_ranks)
        check_positive("n_banks", self.n_banks)
        check_positive("row_bytes", self.row_bytes)
        check_positive("line_bytes", self.line_bytes)
        check_positive("burst_cycles", self.burst_cycles)
        for f in (
            "trp_cycles",
            "trcd_cycles",
            "cl_cycles",
            "twr_cycles",
            "twtr_cycles",
            "trtw_cycles",
            "trefi_cycles",
            "trfc_cycles",
            "mc_cycles",
        ):
            if getattr(self, f) < 0:
                raise ConfigurationError(f"{f} must be >= 0")
        if self.trefi_cycles > 0 and self.trfc_cycles >= self.trefi_cycles:
            raise ConfigurationError("trfc_cycles must be smaller than trefi_cycles")
        if self.page_policy not in ("close", "open"):
            raise ConfigurationError(
                f"page_policy must be 'close' or 'open', got {self.page_policy!r}"
            )
        if set(self.address_map) != {"channel", "row", "col", "bank", "rank"}:
            raise ConfigurationError(
                f"address_map must be a permutation of channel/row/col/bank/rank, "
                f"got {self.address_map!r}"
            )
        if self.row_bytes % self.line_bytes != 0:
            raise ConfigurationError("row_bytes must be a multiple of line_bytes")

    @property
    def total_banks(self) -> int:
        """Banks across all channels and ranks (Table II: 32)."""
        return self.n_channels * self.n_ranks * self.n_banks

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def peak_apc(self) -> float:
        """Peak sustainable bandwidth in lines (accesses) per CPU cycle."""
        return self.n_channels / self.burst_cycles

    def peak_gigabytes_per_sec(self, cpu_frequency_hz: float = 5.0e9) -> float:
        """Peak bandwidth in GB/s at the given CPU clock."""
        return self.peak_apc * self.line_bytes * cpu_frequency_hz / 1e9

    def with_bus_scale(self, factor: float, name: str | None = None) -> "DRAMConfig":
        """Scale bus frequency by ``factor`` (burst time shrinks; the
        latency parameters tRP/tRCD/CL stay fixed, per Sec. VI-C)."""
        check_positive("factor", factor)
        return replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            burst_cycles=self.burst_cycles / factor,
        )


def ddr2_400() -> DRAMConfig:
    """The paper's baseline: 3.2 GB/s peak (0.01 APC at 64 B / 5 GHz)."""
    return DRAMConfig()


def ddr2_800() -> DRAMConfig:
    """6.4 GB/s: bus frequency doubled, latencies unchanged (Sec. VI-C)."""
    return ddr2_400().with_bus_scale(2.0, name="DDR2-800")


def ddr2_1600() -> DRAMConfig:
    """12.8 GB/s: bus frequency x4, latencies unchanged (Sec. VI-C)."""
    return ddr2_400().with_bus_scale(4.0, name="DDR2-1600")
