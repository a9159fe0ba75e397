"""Multi-channel controller tests (engine + schedulers with channels)."""

import dataclasses

import numpy as np
import pytest

from repro.sim import (
    CoreSpec,
    DRAMConfig,
    FCFSScheduler,
    SimConfig,
    StartTimeFairScheduler,
    simulate,
)
from repro.sim.mc.fcfs import FCFSScheduler as FCFS
from repro.sim.request import Request


def two_channel_config(**kw) -> DRAMConfig:
    base = dict(n_channels=2, n_ranks=2, n_banks=8)
    base.update(kw)
    return DRAMConfig(**base)


def heavy(name="heavy") -> CoreSpec:
    return CoreSpec(name=name, api=0.05, ipc_peak=1.2, mlp=32, write_fraction=0.1)


CFG2 = SimConfig(
    dram=two_channel_config(),
    warmup_cycles=50_000,
    measure_cycles=300_000,
    seed=6,
)


class TestSchedulerChannelFilter:
    def _req(self, app: int, channel: int) -> Request:
        r = Request(app_id=app, line_addr=0, is_write=False, created=0.0)
        r.channel = channel
        return r

    def test_select_respects_channel(self):
        s = FCFS(2)
        s.enqueue(self._req(0, channel=0), 0.0)
        s.enqueue(self._req(1, channel=1), 1.0)
        picked = s.select(2.0, channel=1)
        assert picked.app_id == 1
        picked = s.select(2.0, channel=1)
        assert picked is None  # channel 1 drained
        assert s.select(2.0, channel=0).app_id == 0

    def test_has_pending_per_channel(self):
        s = FCFS(1)
        s.enqueue(self._req(0, channel=1), 0.0)
        assert s.has_pending()
        assert s.has_pending(1)
        assert not s.has_pending(0)

    def test_pending_apps_per_channel(self):
        s = FCFS(3)
        s.enqueue(self._req(0, channel=0), 0.0)
        s.enqueue(self._req(2, channel=1), 0.0)
        assert list(s.pending_apps(0)) == [0]
        assert list(s.pending_apps(1)) == [2]

    def test_stf_channel_filter_keeps_global_tags(self):
        s = StartTimeFairScheduler(2, np.array([0.5, 0.5]))
        for _ in range(4):
            s.enqueue(self._req(0, channel=0), 0.0)
            s.enqueue(self._req(1, channel=0), 0.0)
        # drain channel 0 alternately; tags advance globally
        order = [s.select(0.0, channel=0).app_id for _ in range(8)]
        assert order.count(0) == 4 and order.count(1) == 4


class TestTwoChannelEngine:
    def test_peak_bandwidth_doubles(self):
        """Two channels at the same bus rate sustain ~2x the APC."""
        specs = [heavy(f"h{i}") for i in range(4)]
        cfg1 = dataclasses.replace(
            CFG2, dram=DRAMConfig(n_channels=1, n_ranks=4, n_banks=8)
        )
        one = simulate(specs, lambda n: FCFSScheduler(n), cfg1)
        two = simulate(specs, lambda n: FCFSScheduler(n), CFG2)
        assert two.total_apc == pytest.approx(2 * one.total_apc, rel=0.08)

    def test_requests_split_across_channels(self):
        specs = [heavy(f"h{i}") for i in range(2)]
        from repro.sim.engine import Engine

        engine = Engine(specs, FCFSScheduler(2), CFG2)
        engine.run()
        busy = [ch.bus_busy_cycles for ch in engine.dram.channels]
        assert all(b > 0 for b in busy)
        # the paper's channel-MSB mapping is uniform for random streams
        assert abs(busy[0] - busy[1]) < 0.2 * sum(busy)

    def test_share_enforcement_across_channels(self):
        """STF shares hold globally even with two independent buses."""
        specs = [heavy("a"), heavy("b")]
        beta = np.array([0.75, 0.25])
        res = simulate(specs, lambda n: StartTimeFairScheduler(n, beta), CFG2)
        ratio = res.apps[0].apc / res.apps[1].apc
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_utilization_normalized_per_channel(self):
        specs = [heavy(f"h{i}") for i in range(4)]
        res = simulate(specs, lambda n: FCFSScheduler(n), CFG2)
        assert 0.5 < res.bus_utilization <= 1.0

    def test_determinism(self):
        specs = [heavy(f"h{i}") for i in range(2)]
        r1 = simulate(specs, lambda n: FCFSScheduler(n), CFG2)
        r2 = simulate(specs, lambda n: FCFSScheduler(n), CFG2)
        np.testing.assert_array_equal(r1.apc_shared, r2.apc_shared)
