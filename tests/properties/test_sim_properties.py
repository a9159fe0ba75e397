"""Property-based tests for simulator components.

Random-input invariants for the pieces with the trickiest state:
DRAM channel timing legality, STF share enforcement, cache behaviour
against a brute-force reference model, and address-mapper bijectivity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import Cache, CacheConfig
from repro.sim.dram.address import AddressMapper
from repro.sim.dram.channel import Channel
from repro.sim.dram.config import DRAMConfig, ddr2_400
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.sim.request import Request


def _req(app=0, bank=0, row=0, write=False) -> Request:
    r = Request(app_id=app, line_addr=0, is_write=write, created=0.0)
    r.bank = bank
    r.row = row
    return r


class TestChannelTimingLegality:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 31),            # bank
                st.integers(0, 64),            # row
                st.booleans(),                 # write
                st.floats(0.0, 200.0),         # inter-issue gap
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from(["close", "open"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_traffic_never_overlaps_bus(self, ops, policy):
        cfg = DRAMConfig(page_policy=policy, trefi_cycles=5000.0, trfc_cycles=400.0)
        ch = Channel(cfg)
        now = 0.0
        intervals = []
        for bank, row, write, gap in ops:
            now += gap
            busy = ch.bus_busy_cycles
            # issue returns the transfer's end; the burst fills the bus
            # up to it
            data_end = ch.issue(_req(bank=bank, row=row, write=write), now)
            data_start = data_end - cfg.burst_cycles
            intervals.append((data_start, data_end))
            assert ch.bus_free == data_end
            assert ch.bus_busy_cycles - busy == pytest.approx(cfg.burst_cycles)
            assert data_start >= now - 1e-9
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9  # bus transfers strictly ordered

    @given(
        st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=2, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_bank_never_reused_before_ready(self, ops):
        cfg = DRAMConfig(trefi_cycles=0.0, trfc_cycles=0.0)
        ch = Channel(cfg)
        bank_ready: dict[int, float] = {}
        for bank, write in ops:
            data_end = ch.issue(_req(bank=bank, write=write), now=0.0)
            data_start = data_end - cfg.burst_cycles
            if bank in bank_ready:
                # a close-page access implies an activate, which may not
                # precede the bank's previous ready time
                assert (
                    data_start - cfg.trcd_cycles - cfg.cl_cycles
                    >= bank_ready[bank] - 1e-9
                )
            bank_ready[bank] = ch.banks[bank].ready_time


class TestSTFProperties:
    @given(
        st.integers(2, 6),
        st.integers(0, 2**31 - 1),
        st.integers(50, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_backlogged_service_matches_shares(self, n, seed, grants):
        """With all apps permanently backlogged, per-app service counts
        are proportional to beta within one stride each."""
        rng = np.random.default_rng(seed)
        beta = rng.dirichlet(np.ones(n) * 2.0)
        beta = np.maximum(beta, 0.02)
        beta /= beta.sum()
        sched = StartTimeFairScheduler(n, beta)
        for _ in range(grants + n):
            for a in range(n):
                sched.enqueue(_req(app=a), 0.0)
        counts = np.zeros(n)
        for _ in range(grants):
            req = sched.select(0.0)
            counts[req.app_id] += 1
        # stride scheduling bounds per-app deviation by O(log n) grants
        np.testing.assert_allclose(counts, beta * grants, atol=1.0 + np.log2(n))

    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_request_lost(self, n, seed):
        rng = np.random.default_rng(seed)
        beta = rng.dirichlet(np.ones(n))
        sched = StartTimeFairScheduler(n, beta)
        total = 0
        for a in range(n):
            k = int(rng.integers(0, 20))
            total += k
            for _ in range(k):
                sched.enqueue(_req(app=a), 0.0)
        served = 0
        while sched.select(0.0) is not None:
            served += 1
        assert served == total
        assert not sched.has_pending()


class TestCacheAgainstReference:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=300
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_lru(self, accesses):
        """The cache must agree access-by-access with a brute-force LRU
        reference model (list-based, obviously-correct)."""
        cfg = CacheConfig(size_bytes=4 * 64 * 2, ways=2, line_bytes=64)  # 4 sets
        cache = Cache(cfg)
        # reference: per-set list of [tag, dirty], index 0 = LRU
        ref: list[list[list]] = [[] for _ in range(cfg.n_sets)]
        for addr, write in accesses:
            s, tag = addr % cfg.n_sets, addr // cfg.n_sets
            entry = next((e for e in ref[s] if e[0] == tag), None)
            if entry is not None:
                exp_hit, exp_victim = True, None
                ref[s].remove(entry)
                entry[1] = entry[1] or write
                ref[s].append(entry)
            else:
                exp_hit = False
                exp_victim = None
                if len(ref[s]) >= cfg.ways:
                    victim = ref[s].pop(0)
                    if victim[1]:
                        exp_victim = victim[0] * cfg.n_sets + s
                ref[s].append([tag, write])
            hit, victim_addr = cache.access(addr, write)
            assert hit == exp_hit
            assert victim_addr == exp_victim


class TestAddressMapperProperties:
    @given(st.integers(0, 2**22 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bijective(self, addr):
        mapper = AddressMapper(ddr2_400())
        addr %= 1 << mapper.address_bits
        assert mapper.encode(mapper.decode(addr)) == addr
