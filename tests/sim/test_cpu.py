"""Unit tests for the limit-based core model (repro.sim.cpu)."""

import pytest

from repro.sim.cpu import CoreSim, CoreSpec
from repro.sim.dram.config import ddr2_400
from repro.sim.stream import MissAddressStream, StreamSpec
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStream


def make_core(
    api=0.01, ipc_peak=1.0, mlp=2, wf=0.0, wq=4, core_id=0, seed=1
) -> CoreSim:
    spec = CoreSpec(
        name="t", api=api, ipc_peak=ipc_peak, mlp=mlp,
        write_fraction=wf, write_queue_cap=wq,
    )
    stream = MissAddressStream(ddr2_400(), StreamSpec(), core_id, RngStream(seed, "s"))
    return CoreSim(core_id, spec, stream, RngStream(seed, "c"))


class TestCoreSpec:
    def test_demand_apc(self):
        spec = CoreSpec(name="x", api=0.02, ipc_peak=0.5, mlp=4)
        assert spec.demand_apc == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoreSpec(name="x", api=0.0, ipc_peak=1.0, mlp=1)
        with pytest.raises(ConfigurationError):
            CoreSpec(name="x", api=0.01, ipc_peak=1.0, mlp=1, write_fraction=1.5)


class TestExecution:
    def test_start_schedules_first_access(self):
        core = make_core()
        t = core.start(0.0)
        assert t > 0.0
        assert core.running

    def test_access_generates_request(self):
        core = make_core(mlp=4)
        t = core.start(0.0)
        req, nxt = core.generate_access(t)
        assert req.app_id == 0
        assert req.created == t
        assert nxt is not None and nxt > t
        assert core.outstanding_reads == 1

    def test_stalls_at_mlp_limit(self):
        core = make_core(mlp=2)
        t = core.start(0.0)
        _, t = core.generate_access(t)
        req, nxt = core.generate_access(t)
        assert nxt is None  # second outstanding read == mlp -> stall
        assert core.is_memory_stalled

    def test_resume_on_read_completion(self):
        core = make_core(mlp=1)
        t = core.start(0.0)
        _, nxt = core.generate_access(t)
        assert nxt is None
        frozen = core.instructions_at(t)
        assert core.instructions_at(t + 300.0) == frozen  # 300 stalled cycles
        resumed = core.complete_read(t + 300.0)
        assert resumed is not None and resumed > t + 300.0
        assert core.running
        # the next gap starts at the resume, not at the stall
        assert core.instructions_at(t + 300.0) == frozen
        assert core.instructions_at(resumed) > frozen

    def test_access_while_stalled_is_a_bug(self):
        core = make_core(mlp=1)
        t = core.start(0.0)
        core.generate_access(t)
        with pytest.raises(SimulationError):
            core.generate_access(t + 1.0)

    def test_read_underflow_detected(self):
        core = make_core()
        core.start(0.0)
        with pytest.raises(SimulationError):
            core.complete_read(1.0)

    def test_write_queue_stall_and_drain(self):
        core = make_core(wf=1.0, wq=1, mlp=8)
        t = core.start(0.0)
        req, nxt = core.generate_access(t)
        assert req.is_write
        assert nxt is None  # write queue full at cap=1
        resumed = core.drain_write(t + 100.0)
        assert resumed is not None
        assert core.pending_writes == 0


class TestInstructionAccounting:
    def test_instructions_advance_only_while_running(self):
        core = make_core(mlp=1, ipc_peak=2.0)
        t = core.start(0.0)
        req, nxt = core.generate_access(t)  # stalls
        before = core.instructions_at(t)
        later = core.instructions_at(t + 1000.0)
        assert later == before  # frozen while stalled

    def test_fractional_gap_interpolation(self):
        core = make_core(mlp=8, ipc_peak=1.0)
        t = core.start(0.0)
        mid = core.instructions_at(t / 2)
        assert 0 < mid < core.instructions_at(t) + 1e9
        # halfway through the first gap = half its instructions
        assert mid == pytest.approx(t / 2 * 1.0, rel=1e-9)

    def test_realized_api_matches_spec(self):
        """Long-run accesses/instructions must converge to the spec API."""
        core = make_core(api=0.02, ipc_peak=1.0, mlp=10_000)
        t = core.start(0.0)
        requests = []
        for _ in range(4000):
            req, t = core.generate_access(t)
            requests.append(req)
        api = len(requests) / core.instructions_at(t)
        assert api == pytest.approx(0.02, rel=0.05)

    def test_write_fraction_realized(self):
        core = make_core(api=0.02, wf=0.3, mlp=10_000, wq=10_000)
        t = core.start(0.0)
        requests = []
        for _ in range(3000):
            req, t = core.generate_access(t)
            requests.append(req)
        frac = sum(r.is_write for r in requests) / len(requests)
        assert frac == pytest.approx(0.3, abs=0.03)

    def test_determinism_per_seed(self):
        c1, c2 = make_core(seed=9), make_core(seed=9)
        t1, t2 = c1.start(0.0), c2.start(0.0)
        assert t1 == t2
        r1, _ = c1.generate_access(t1)
        r2, _ = c2.generate_access(t2)
        assert r1.line_addr == r2.line_addr
        assert r1.is_write == r2.is_write

    def test_different_seeds_differ(self):
        c1, c2 = make_core(seed=1), make_core(seed=2)
        assert c1.start(0.0) != c2.start(0.0)
