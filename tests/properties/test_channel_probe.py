"""Probe/issue consistency properties of the channel timing model.

The scheduler relies on two channel probes -- ``earliest_data_start``
and ``bank_ready_by`` -- to plan issues.  These properties pin down the
contract: probes never promise earlier service than ``issue`` delivers,
and issuing never silently beats the probe (no time travel in either
direction).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dram.channel import Channel
from repro.sim.dram.config import DRAMConfig
from repro.sim.request import Request


def _req(bank: int, row: int, write: bool) -> Request:
    r = Request(app_id=0, line_addr=0, is_write=write, created=0.0)
    r.bank = bank
    r.row = row
    return r


def _issue(ch: Channel, bank: int, row: int, write: bool, now: float):
    """Issue one request; return its (data_start, bank_ready) from the
    returned data end and the bank state ``issue`` leaves behind."""
    data_end = ch.issue(_req(bank, row, write), now)
    return data_end - ch.config.burst_cycles, ch.banks[bank].ready_time


@st.composite
def traffic(draw):
    policy = draw(st.sampled_from(["close", "open"]))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 7),       # bank
                st.integers(0, 32),      # row
                st.booleans(),           # write
                st.floats(0.0, 400.0),   # gap before issue
            ),
            min_size=1,
            max_size=40,
        )
    )
    return policy, ops


class TestProbeIssueConsistency:
    @given(traffic())
    @settings(max_examples=80, deadline=None)
    def test_probe_equals_issue_data_start(self, t):
        """``earliest_data_start`` computed immediately before ``issue``
        predicts the realized data_start exactly (refresh aside)."""
        policy, ops = t
        cfg = DRAMConfig(page_policy=policy, trefi_cycles=0.0, trfc_cycles=0.0)
        ch = Channel(cfg)
        now = 0.0
        for bank, row, write, gap in ops:
            now += gap
            probe = ch.earliest_data_start(bank, row, now, is_write=write)
            data_start, _ = _issue(ch, bank, row, write, now)
            assert data_start == pytest.approx(probe)

    @given(traffic())
    @settings(max_examples=80, deadline=None)
    def test_bank_ready_probe_is_honest(self, t):
        """If ``bank_ready_by(deadline)`` is True then issuing cannot be
        delayed past the deadline by the *bank* (only by bus/turnaround)."""
        policy, ops = t
        cfg = DRAMConfig(page_policy=policy, trefi_cycles=0.0, trfc_cycles=0.0)
        ch = Channel(cfg)
        now = 0.0
        for bank, row, write, gap in ops:
            now += gap
            deadline = max(now, ch.bus_free)
            ready = ch.bank_ready_by(bank, row, now, deadline)
            data_start, _ = _issue(ch, bank, row, write, now)
            if ready:
                # any delay beyond the deadline must be bus-side
                turnaround = max(
                    cfg.twtr_cycles, cfg.trtw_cycles
                )
                assert data_start <= deadline + turnaround + 1e-9

    @given(traffic())
    @settings(max_examples=60, deadline=None)
    def test_issue_never_precedes_request_time(self, t):
        policy, ops = t
        cfg = DRAMConfig(page_policy=policy)
        ch = Channel(cfg)
        now = 0.0
        for bank, row, write, gap in ops:
            now += gap
            data_start, bank_ready = _issue(ch, bank, row, write, now)
            assert data_start >= now
            assert bank_ready >= data_start
