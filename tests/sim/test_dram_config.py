"""Unit tests for DRAM configuration (repro.sim.dram.config)."""

import pytest

from repro.sim.dram.config import (
    DRAMConfig,
    ddr2_400,
    ddr2_800,
    ddr2_1600,
)
from repro.util.errors import ConfigurationError


class TestBaseline:
    def test_table2_geometry(self):
        """Table II: 32 DRAM banks, 64 B lines, close page."""
        cfg = ddr2_400()
        assert cfg.total_banks == 32
        assert cfg.line_bytes == 64
        assert cfg.page_policy == "close"

    def test_peak_bandwidth_is_3_2_gbs(self):
        """DDR2-PC3200: 3.2 GB/s at a 5 GHz CPU clock."""
        cfg = ddr2_400()
        assert cfg.peak_gigabytes_per_sec(5e9) == pytest.approx(3.2)

    def test_peak_apc_is_one_percent(self):
        """Sec. III-A: 0.01 APC == 3.2 GB/s."""
        assert ddr2_400().peak_apc == pytest.approx(0.01)

    def test_latencies_are_12_5_ns(self):
        """tRP-tRCD-CL = 12.5-12.5-12.5 ns = 62.5 CPU cycles at 5 GHz."""
        cfg = ddr2_400()
        assert cfg.trp_cycles == pytest.approx(62.5)
        assert cfg.trcd_cycles == pytest.approx(62.5)
        assert cfg.cl_cycles == pytest.approx(62.5)

    def test_burst_is_100_cycles(self):
        """64 B / 3.2 GB/s = 20 ns = 100 CPU cycles."""
        assert ddr2_400().burst_cycles == pytest.approx(100.0)


class TestScaling:
    def test_scaled_variants_double_bandwidth(self):
        assert ddr2_800().peak_gigabytes_per_sec() == pytest.approx(6.4)
        assert ddr2_1600().peak_gigabytes_per_sec() == pytest.approx(12.8)

    def test_scaling_keeps_latencies(self):
        """Sec. VI-C: only the bus frequency changes."""
        base, scaled = ddr2_400(), ddr2_1600()
        assert scaled.trp_cycles == base.trp_cycles
        assert scaled.trcd_cycles == base.trcd_cycles
        assert scaled.cl_cycles == base.cl_cycles

    def test_scaling_shrinks_burst(self):
        assert ddr2_800().burst_cycles == pytest.approx(50.0)
        assert ddr2_1600().burst_cycles == pytest.approx(25.0)

    def test_with_bus_scale_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ddr2_400().with_bus_scale(0.0)


class TestValidation:
    def test_bad_page_policy(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(page_policy="sideways")

    def test_bad_address_map(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(address_map=("row", "col", "bank", "rank"))

    def test_row_not_multiple_of_line(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(row_bytes=100, line_bytes=64)

    def test_negative_latency(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(trp_cycles=-1.0)

    def test_refresh_longer_than_interval(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(trefi_cycles=100.0, trfc_cycles=200.0)

    def test_lines_per_row(self):
        assert ddr2_400().lines_per_row == 8192 // 64


class TestDDR3Preset:
    def test_runs_end_to_end(self):
        from repro.sim import CoreSpec, FCFSScheduler, SimConfig, simulate

        # a DDR3-1066-class part: 8.5 GB/s, 8 banks x 2 ranks, longer tRFC
        ddr3_1066 = DRAMConfig(
            name="DDR3-1066", n_channels=1, n_ranks=2, n_banks=8,
            burst_cycles=37.5, trp_cycles=65.5, trcd_cycles=65.5,
            cl_cycles=65.5, twr_cycles=75.0, twtr_cycles=37.5,
            trtw_cycles=10.0, trefi_cycles=39_000.0, trfc_cycles=800.0,
        )
        spec = CoreSpec(name="h", api=0.05, ipc_peak=1.0, mlp=24,
                        write_fraction=0.1)
        cfg = SimConfig(
            dram=ddr3_1066, warmup_cycles=20_000,
            measure_cycles=150_000, seed=4,
        )
        res = simulate([spec] * 2, lambda n: FCFSScheduler(n), cfg)
        # two heavy streams approach the DDR3 peak (0.0267 APC); the
        # shorter 37.5-cycle burst makes turnaround losses relatively
        # larger than on DDR2, so ~85-90% utilization is the ceiling
        assert res.bus_utilization > 0.8
        assert 0.8 * 0.0267 < res.total_apc <= 0.0267
