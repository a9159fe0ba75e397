"""Unit tests for the stats containers (repro.sim.stats)."""

import numpy as np
import pytest

from repro.core.apps import Workload
from repro.sim.stats import AppCounters, AppWindowResult, SimResult
from repro.util.errors import ConfigurationError


def window(name="app", instructions=1000.0, accesses=50, reads=40, writes=10,
           cycles=10_000.0, latency=300.0, interference=2_000.0,
           est=0.008) -> AppWindowResult:
    return AppWindowResult(
        name=name,
        instructions=instructions,
        accesses=accesses,
        reads=reads,
        writes=writes,
        window_cycles=cycles,
        mean_latency=latency,
        interference_cycles=interference,
        apc_alone_est=est,
    )


class TestAppWindowResult:
    def test_apc(self):
        assert window().apc == pytest.approx(50 / 10_000)

    def test_ipc(self):
        assert window().ipc == pytest.approx(0.1)

    def test_api_measured(self):
        assert window().api_measured == pytest.approx(0.05)

    def test_api_with_zero_instructions(self):
        w = window(instructions=0.0)
        assert w.api_measured == float("inf")

    def test_kilo_scalings(self):
        w = window()
        assert w.apkc == pytest.approx(w.apc * 1000)
        assert w.apki == pytest.approx(w.api_measured * 1000)


class TestSimResult:
    def _result(self) -> SimResult:
        return SimResult(
            apps=(window("a"), window("b", instructions=2000.0, accesses=100)),
            window_cycles=10_000.0,
            bus_utilization=0.8,
            row_hit_rate=0.0,
            scheduler_name="fcfs",
            dram_name="DDR2-400",
            seed=1,
        )

    def test_vectors(self):
        r = self._result()
        np.testing.assert_allclose(r.apc_shared, [0.005, 0.01])
        np.testing.assert_allclose(r.ipc_shared, [0.1, 0.2])
        assert r.total_apc == pytest.approx(0.015)
        assert r.names == ("a", "b")
        assert r.n == 2

    def test_speedups(self):
        r = self._result()
        np.testing.assert_allclose(
            r.speedups(np.array([0.2, 0.2])), [0.5, 1.0]
        )

    def test_speedups_shape_checked(self):
        with pytest.raises(ConfigurationError):
            self._result().speedups(np.ones(3))

    def test_estimated_profiles_default_api(self):
        r = self._result()
        wl = r.estimated_profiles()
        assert isinstance(wl, Workload)
        np.testing.assert_allclose(wl.apc_alone, [0.008, 0.008])
        # default API comes from the measured accesses/instructions
        np.testing.assert_allclose(wl.api, [0.05, 0.05])

    def test_apc_alone_est_vector(self):
        np.testing.assert_allclose(
            self._result().apc_alone_est, [0.008, 0.008]
        )


class TestAppCounters:
    def test_defaults_zero(self):
        c = AppCounters()
        assert c.reads_served == 0 and c.instructions == 0.0

    def test_minus_all_fields(self):
        a = AppCounters()
        a.instructions = 10.0
        a.reads_served = 5
        a.writes_served = 2
        a.latency_sum = 100.0
        a.interference_cycles = 50.0
        d = a.minus(AppCounters())
        assert (d.instructions, d.reads_served, d.writes_served) == (10.0, 5, 2)
        assert (d.latency_sum, d.interference_cycles) == (100.0, 50.0)
