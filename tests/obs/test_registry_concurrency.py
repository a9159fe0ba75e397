"""MetricsRegistry under concurrency: threads and forked workers.

The registry's contract is *no lost increments*: every instrument
carries its own lock, so counters hammered from many threads land on
the exact total and histogram aggregates stay internally consistent.
The forkserver case pins the other half of the story -- instruments
hold ``threading.Lock`` objects, so a registry must be *created inside*
a worker process (never pickled into one), and a fresh start method
must produce the same exact totals and snapshot.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.obs.registry import MetricsRegistry

N_THREADS = 8
N_PER_THREAD = 4000


def _hammer(reg: MetricsRegistry, n: int) -> None:
    """Per-thread body: get-or-create then update all three kinds."""
    counter = reg.counter("conc.requests", path="/x")
    gauge = reg.gauge("conc.level")
    hist = reg.histogram("conc.latency_ms", reservoir=256)
    for i in range(n):
        counter.inc()
        gauge.add(1.0)
        hist.observe(float(i % 7))


def _run_threads(reg: MetricsRegistry, n_threads: int, n: int) -> None:
    threads = [
        threading.Thread(target=_hammer, args=(reg, n))
        for _ in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _forkserver_report(n: int) -> tuple[float, int, dict]:
    """Worker entry point (module top level so forkserver can import it)."""
    reg = MetricsRegistry()
    _run_threads(reg, N_THREADS, n)
    total = reg.get_value("conc.requests", path="/x")
    hist = reg.histogram("conc.latency_ms", reservoir=256)
    return float(total), hist.snapshot()["count"], reg.snapshot()


class TestThreadSafety:
    def test_no_lost_increments_across_threads(self):
        reg = MetricsRegistry()
        _run_threads(reg, N_THREADS, N_PER_THREAD)
        expected = float(N_THREADS * N_PER_THREAD)
        assert reg.get_value("conc.requests", path="/x") == expected
        assert reg.get_value("conc.level") == expected
        snap = reg.histogram("conc.latency_ms", reservoir=256).snapshot()
        assert snap["count"] == N_THREADS * N_PER_THREAD
        assert snap["min"] == 0.0
        assert snap["max"] == 6.0

    def test_concurrent_get_or_create_yields_one_instrument(self):
        reg = MetricsRegistry()
        found = []
        barrier = threading.Barrier(N_THREADS)

        def create():
            barrier.wait()
            found.append(reg.counter("conc.created", path="/race"))

        threads = [threading.Thread(target=create) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is found[0] for c in found)

    def test_export_is_stable_while_threads_write(self):
        """Snapshotting mid-hammer never crashes or emits a non-number."""
        reg = MetricsRegistry()
        writers = [
            threading.Thread(target=_hammer, args=(reg, N_PER_THREAD))
            for _ in range(4)
        ]
        for t in writers:
            t.start()
        try:
            for _ in range(50):
                for entry in reg.snapshot().values():
                    for series in entry["series"]:
                        value = series["value"]
                        if isinstance(value, dict):  # a histogram
                            value = value["max"]
                        float(value)
        finally:
            for t in writers:
                t.join()
        # after the writers drain, the snapshot shows the exact total
        final = reg.snapshot()["conc.requests"]["series"]
        assert final == [{"labels": {"path": "/x"}, "value": 4.0 * N_PER_THREAD}]


class TestForkserverWorker:
    def test_worker_process_registry_is_consistent(self):
        try:
            ctx = multiprocessing.get_context("forkserver")
        except ValueError:  # platform without forkserver
            pytest.skip("forkserver start method unavailable")
        with ctx.Pool(processes=1) as pool:
            total, hist_count, snap = pool.apply(
                _forkserver_report, (N_PER_THREAD // 4,)
            )
        expected = N_THREADS * (N_PER_THREAD // 4)
        assert total == float(expected)
        assert hist_count == expected
        assert snap["conc.requests"]["series"] == [
            {"labels": {"path": "/x"}, "value": float(expected)}
        ]
        latency = snap["conc.latency_ms"]
        assert latency["kind"] == "histogram"
        assert latency["series"][0]["value"]["min"] == 0.0
        assert latency["series"][0]["value"]["max"] == 6.0
