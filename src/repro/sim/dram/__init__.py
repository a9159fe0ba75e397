"""Cycle-level DDR2 memory-system model (replaces DRAMSim2)."""

from repro.sim.dram.address import AddressMapper, DecodedAddress
from repro.sim.dram.bank import Bank
from repro.sim.dram.channel import Channel
from repro.sim.dram.config import (
    DRAMConfig,
    ddr2_400,
    ddr2_800,
    ddr2_1600,
)
from repro.sim.dram.system import DRAMSystem

__all__ = [
    "AddressMapper",
    "DecodedAddress",
    "Bank",
    "Channel",
    "DRAMConfig",
    "ddr2_400",
    "ddr2_800",
    "ddr2_1600",
    "DRAMSystem",
]
