"""Unit tests for bank/channel timing (repro.sim.dram.bank/channel).

``Channel.issue`` returns the cycle the data transfer ends; the other
timings these tests check are read from the channel and bank state it
leaves behind (:func:`issue`).
"""

from types import SimpleNamespace

import pytest

from repro.sim.dram.bank import Bank
from repro.sim.dram.channel import Channel
from repro.sim.dram.config import DRAMConfig, ddr2_400
from repro.sim.request import Request


def make_request(bank=0, row=0, write=False, app=0, t=0.0) -> Request:
    req = Request(app_id=app, line_addr=0, is_write=write, created=t)
    req.bank = bank
    req.row = row
    return req


def issue(ch: Channel, req: Request, now: float) -> SimpleNamespace:
    """Issue ``req`` and read its timing back: the data end is the
    return value (and the new ``bus_free``), the burst fills the bus up
    to it, and the bank's state gives its ready time and row hit."""
    bank = ch.banks[req.bank]
    hits = bank.n_row_hits
    data_end = ch.issue(req, now)
    assert ch.bus_free == data_end
    return SimpleNamespace(
        data_start=data_end - ch.config.burst_cycles,
        data_end=data_end,
        bank_ready=bank.ready_time,
        row_hit=bank.n_row_hits > hits,
    )


def no_refresh(**kw) -> DRAMConfig:
    base = dict(trefi_cycles=0.0, trfc_cycles=0.0)
    base.update(kw)
    return DRAMConfig(**base)


class TestClosePageTiming:
    def test_first_access_pays_activate(self):
        ch = Channel(no_refresh())
        r = issue(ch, make_request(), 0.0)
        # tRCD + CL before data, then the burst
        assert r.data_start == pytest.approx(62.5 + 62.5)
        assert r.data_end == pytest.approx(125.0 + 100.0)

    def test_close_page_repays_activate_every_time(self):
        """Close page policy: no row hits ever, even same-row accesses."""
        ch = Channel(no_refresh())
        r1 = issue(ch, make_request(bank=0, row=5), 0.0)
        assert not r1.row_hit
        r2 = issue(ch, make_request(bank=0, row=5), r1.data_end)
        assert not r2.row_hit
        # second access waits for auto-precharge (tRP) then re-activates
        expected = r1.bank_ready + 62.5 + 62.5
        assert r2.data_start == pytest.approx(expected)

    def test_bank_recovery_includes_trp(self):
        ch = Channel(no_refresh())
        r = issue(ch, make_request(), 0.0)
        assert r.bank_ready == pytest.approx(r.data_end + 62.5)

    def test_write_recovery_adds_twr(self):
        ch = Channel(no_refresh())
        r = issue(ch, make_request(write=True), 0.0)
        assert r.bank_ready == pytest.approx(r.data_end + 75.0 + 62.5)

    def test_different_banks_overlap_on_bus(self):
        """Bank-level parallelism: a second bank's burst starts right
        after the first burst ends (activates overlap)."""
        ch = Channel(no_refresh())
        r1 = issue(ch, make_request(bank=0), 0.0)
        r2 = issue(ch, make_request(bank=1), 0.0)
        assert r2.data_start == pytest.approx(r1.data_end)

    def test_bus_never_double_booked(self):
        ch = Channel(no_refresh())
        ends = []
        for i in range(20):
            r = issue(ch, make_request(bank=i % 8), 0.0)
            ends.append((r.data_start, r.data_end))
        for (s1, e1), (s2, e2) in zip(ends, ends[1:]):
            assert s2 >= e1 - 1e-9


class TestOpenPageTiming:
    def test_row_hit_skips_activate(self):
        ch = Channel(no_refresh(page_policy="open"))
        r1 = issue(ch, make_request(bank=0, row=7), 0.0)
        assert not r1.row_hit
        r2 = issue(ch, make_request(bank=0, row=7), r1.bank_ready)
        assert r2.row_hit
        # only CL before data on a row hit
        assert r2.data_start == pytest.approx(
            max(r1.bank_ready + 62.5, r1.data_end)
        )

    def test_row_conflict_pays_precharge(self):
        ch = Channel(no_refresh(page_policy="open"))
        r1 = issue(ch, make_request(bank=0, row=7), 0.0)
        r2 = issue(ch, make_request(bank=0, row=8), r1.bank_ready)
        assert not r2.row_hit
        # precharge + activate + CAS
        assert r2.data_start == pytest.approx(r1.bank_ready + 62.5 + 62.5 + 62.5)

    def test_row_stays_open(self):
        ch = Channel(no_refresh(page_policy="open"))
        issue(ch, make_request(bank=3, row=9), 0.0)
        assert ch.banks[3].open_row == 9

    def test_is_row_hit_probe(self):
        ch = Channel(no_refresh(page_policy="open"))
        issue(ch, make_request(bank=3, row=9), 0.0)
        assert ch.is_row_hit(3, 9)
        assert not ch.is_row_hit(3, 10)
        assert not ch.is_row_hit(4, 9)


class TestTurnaround:
    def test_write_to_read_pays_twtr(self):
        ch = Channel(no_refresh())
        r1 = issue(ch, make_request(bank=0, write=True), 0.0)
        r2 = issue(ch, make_request(bank=1, write=False), 0.0)
        assert r2.data_start == pytest.approx(r1.data_end + 37.5)

    def test_read_to_write_pays_trtw(self):
        ch = Channel(no_refresh())
        r1 = issue(ch, make_request(bank=0, write=False), 0.0)
        r2 = issue(ch, make_request(bank=1, write=True), 0.0)
        assert r2.data_start == pytest.approx(r1.data_end + 10.0)

    def test_same_direction_no_penalty(self):
        ch = Channel(no_refresh())
        r1 = issue(ch, make_request(bank=0, write=True), 0.0)
        r2 = issue(ch, make_request(bank=1, write=True), 0.0)
        assert r2.data_start == pytest.approx(r1.data_end)

    def test_first_burst_has_no_penalty(self):
        ch = Channel(no_refresh())
        r = issue(ch, make_request(write=True), 0.0)
        assert r.data_start == pytest.approx(125.0)


class TestRefresh:
    def test_burst_pushed_past_blackout(self):
        cfg = DRAMConfig(trefi_cycles=1000.0, trfc_cycles=300.0)
        ch = Channel(cfg)
        # a burst that would overlap the t=1000 refresh is delayed to 1300
        r = issue(ch, make_request(bank=0), 900.0)
        # activate at 900 -> data would start at 1025, burst would end 1125 > 1000
        assert r.data_start == pytest.approx(1300.0)
        assert ch.n_refreshes == 1

    def test_quiet_channel_skips_refresh_lazily(self):
        cfg = DRAMConfig(trefi_cycles=1000.0, trfc_cycles=300.0)
        ch = Channel(cfg)
        # first traffic long after several refresh intervals
        r = issue(ch, make_request(bank=0), 5600.0)
        # blackouts at 1000..1300, 2000..2300, ... are all in the past
        assert r.data_start == pytest.approx(5725.0)

    def test_refresh_disabled(self):
        ch = Channel(no_refresh())
        r = issue(ch, make_request(), 1e9)
        assert ch.n_refreshes == 0
        assert r.data_start == pytest.approx(1e9 + 125.0)

    def test_saturated_throughput_loses_refresh_fraction(self):
        """Back-to-back reads on many banks: throughput = peak minus the
        tRFC/tREFI refresh overhead (within ~1%)."""
        cfg = no_refresh(trefi_cycles=10_000.0, trfc_cycles=500.0)
        ch = Channel(cfg)
        t = 0.0
        n = 600
        for i in range(n):
            r = issue(ch, make_request(bank=i % 32), t)
            t = max(t, r.data_end - 125.0)
        window = r.data_end
        measured = n / window
        expected = (1 / 100.0) * (1 - 500.0 / 10_000.0)
        assert measured == pytest.approx(expected, rel=0.02)


class TestBankBookkeeping:
    def test_bank_counters(self):
        ch = Channel(no_refresh(page_policy="open"))
        issue(ch, make_request(bank=0, row=1), 0.0)
        issue(ch, make_request(bank=0, row=1), 1000.0)
        b: Bank = ch.banks[0]
        assert b.n_accesses == 2
        assert b.n_activates == 1
        assert b.n_row_hits == 1
        assert b.row_hit_rate == pytest.approx(0.5)

    def test_utilization(self):
        ch = Channel(no_refresh())
        issue(ch, make_request(bank=0), 0.0)
        issue(ch, make_request(bank=1), 0.0)
        assert ch.utilization(1000.0) == pytest.approx(200.0 / 1000.0)
