"""Unit tests for the PAR-BS and TCM lite schedulers."""

import numpy as np
import pytest

from repro.sim import CoreSpec, SimConfig, simulate
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.mc.parbs import PARBSScheduler
from repro.sim.mc.tcm import TCMScheduler
from repro.sim.request import Request
from repro.util.errors import ConfigurationError


def req(app: int, t: float = 0.0) -> Request:
    return Request(app_id=app, line_addr=0, is_write=False, created=t)


def heavy(name="heavy") -> CoreSpec:
    return CoreSpec(name=name, api=0.05, ipc_peak=0.5, mlp=16, write_fraction=0.1)


def light(name="light") -> CoreSpec:
    return CoreSpec(name=name, api=0.004, ipc_peak=0.5, mlp=2)


CFG = SimConfig(warmup_cycles=50_000, measure_cycles=300_000, seed=5)


class TestPARBSUnit:
    def test_batch_served_before_new_arrivals(self):
        s = PARBSScheduler(2, marking_cap=2)
        for _ in range(2):
            s.enqueue(req(0), 0.0)
        first = s.select(1.0)  # forms the batch {two app-0 requests}
        assert first.app_id == 0
        # a newer request from app 1 arrives; the batch still wins
        s.enqueue(req(1), 2.0)
        assert s.select(3.0).app_id == 0
        # batch exhausted: the next batch includes app 1
        assert s.select(4.0).app_id == 1

    def test_sjf_ranking_within_batch(self):
        s = PARBSScheduler(2, marking_cap=5)
        for _ in range(5):
            s.enqueue(req(0), 0.0)
        s.enqueue(req(1), 1.0)
        # batch: 5 requests of app 0, 1 of app 1 -> app 1 ranks first
        assert s.select(2.0).app_id == 1

    def test_marking_cap_bounds_batch(self):
        s = PARBSScheduler(1, marking_cap=3)
        for _ in range(10):
            s.enqueue(req(0), 0.0)
        for _ in range(3):
            s.select(1.0)
        assert s.n_batches == 1
        s.select(1.0)  # 4th pop needs a new batch
        assert s.n_batches == 2

    def test_starvation_freedom(self):
        """Unlike strict priority, every request is served within a
        bounded number of batches even under heavy competing load."""
        s = PARBSScheduler(2, marking_cap=2)
        s.enqueue(req(1), 0.0)
        for i in range(50):
            s.enqueue(req(0), float(i))
        order = [s.select(100.0).app_id for _ in range(6)]
        assert 1 in order

    def test_invalid_cap(self):
        with pytest.raises(ConfigurationError):
            PARBSScheduler(2, marking_cap=0)


class TestTCMUnit:
    def test_clustering_prioritizes_light_app(self):
        s = TCMScheduler(2, cluster_fraction=0.2, epoch_requests=10)
        # epoch 1: app 0 floods, app 1 trickles
        for i in range(20):
            s.enqueue(req(0), float(i))
        s.enqueue(req(1), 5.0)
        for _ in range(10):
            s.select(30.0)
        # recluster happened; app 1 (light) is latency-sensitive now
        s.select(31.0)
        assert 1 in s.latency_cluster
        assert 0 not in s.latency_cluster

    def test_light_app_served_first_after_clustering(self):
        s = TCMScheduler(2, cluster_fraction=0.2, epoch_requests=5)
        for i in range(10):
            s.enqueue(req(0), float(i))
        s.enqueue(req(1), 50.0)
        for _ in range(6):
            s.select(60.0)  # crosses the epoch -> recluster
        # now enqueue one more of each; the light app must win
        s.enqueue(req(1), 70.0)
        picked = s.select(71.0)
        assert picked.app_id == 1

    def test_shuffle_rotates_bandwidth_ranks(self):
        s = TCMScheduler(3, cluster_fraction=0.0, epoch_requests=1)
        ranks = []
        for round_ in range(3):
            for a in range(3):
                s.enqueue(req(a), float(round_))
            s.select(10.0)  # triggers recluster per epoch
            ranks.append(tuple(s._order))
        assert len(set(ranks)) > 1  # ranks change across epochs

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TCMScheduler(2, cluster_fraction=1.5)
        with pytest.raises(ConfigurationError):
            TCMScheduler(2, epoch_requests=0)


class TestHeuristicsEndToEnd:
    @pytest.mark.parametrize(
        "factory", [lambda n: PARBSScheduler(n), lambda n: TCMScheduler(n)]
    )
    def test_improves_fairness_over_fcfs(self, factory):
        """Both heuristics protect the light app better than FCFS."""
        specs = [heavy(), heavy("heavy2"), light(), light("light2")]
        fcfs = simulate(specs, lambda n: FCFSScheduler(n), CFG)
        heur = simulate(specs, factory, CFG)
        # light apps' IPC improves
        assert heur.ipc_shared[2] > fcfs.ipc_shared[2]
        assert heur.ipc_shared[3] > fcfs.ipc_shared[3]

    @pytest.mark.parametrize(
        "factory", [lambda n: PARBSScheduler(n), lambda n: TCMScheduler(n)]
    )
    def test_no_starvation(self, factory):
        specs = [heavy(), heavy("heavy2"), light(), light("light2")]
        res = simulate(specs, factory, CFG)
        assert np.all(res.ipc_shared > 0)

    def test_conserves_bandwidth(self):
        specs = [heavy(), light()]
        for factory in (lambda n: PARBSScheduler(n), lambda n: TCMScheduler(n)):
            res = simulate(specs, factory, CFG)
            assert res.total_apc <= 0.01 + 1e-9
            assert res.total_apc > 0.005
