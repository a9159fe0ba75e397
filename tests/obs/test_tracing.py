"""Span tracing: nesting across threads, processes and asyncio tasks."""

from __future__ import annotations

import asyncio
import contextvars
import gc
import os
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs.tracing import SpanRecord, Tracer


def _by_name():
    return {s.name: s for s in obs.tracer().spans()}


#: the (name, attrs) of the spans one served call records
SERVICE_SHAPES = (
    ("service.request", {"path": "/v1/partition", "method": "POST"}),
    ("service.queue_wait", {"kind": "partition"}),
    ("service.solve", {"kind": "partition", "batch": 3, "batched": True}),
    ("service.serialize", {"status": 200}),
    ("service.solve", {}),
)


def _records(n, pid=None, first_id=1):
    """``n`` distinct records shaped like the service's spans.

    pid/tid are fetched per record and every id and time is computed,
    so each record owns its boxed values -- as ``span`` records do.
    """
    out = []
    for i in range(n):
        name, attrs = SERVICE_SHAPES[i % len(SERVICE_SHAPES)]
        span_id = ((os.getpid() & 0xFFFFFF) << 32) | (first_id + i)
        out.append(SpanRecord(
            name=name,
            span_id=span_id,
            parent_id=None if i % 4 == 0 else span_id - 1,
            ts_us=1.5e9 + 17.25 * i,
            dur_us=3.5 + 0.125 * i,
            cpu_us=0.5 * i,
            pid=os.getpid() if pid is None else pid,
            tid=threading.get_ident(),
            attrs=dict(attrs),
        ))
    return out


def _traced_bytes(build):
    """Bytes still allocated after ``build()``, its result kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


class TestBasicNesting:
    def test_nested_with_blocks_chain_parent_ids(self):
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
        by = _by_name()
        assert by["outer"].parent_id is None
        assert by["middle"].parent_id == by["outer"].span_id
        assert by["inner"].parent_id == by["middle"].span_id

    def test_siblings_share_a_parent(self):
        with obs.span("parent"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        by = _by_name()
        assert by["a"].parent_id == by["parent"].span_id
        assert by["b"].parent_id == by["parent"].span_id

    def test_span_records_wall_and_cpu_time(self):
        with obs.span("work", attrs={"k": "v"}):
            sum(range(10_000))
        (rec,) = obs.tracer().find("work")
        assert rec.dur_us > 0
        assert rec.cpu_us >= 0
        assert rec.attrs["k"] == "v"

    def test_decorator_form(self):
        @obs.span("decorated", attrs={"fn": "f"})
        def f(x):
            return x + 1

        assert f(1) == 2
        (rec,) = obs.tracer().find("decorated")
        assert rec.attrs["fn"] == "f"

    def test_exception_is_recorded_and_propagates(self):
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (rec,) = obs.tracer().find("failing")
        assert rec.attrs["error"] == "ValueError"

    def test_imperative_begin_end(self):
        s = obs.span("phase").begin()
        assert s.span_id is not None
        s.end()
        assert s.span_id is None
        assert len(obs.tracer().find("phase")) == 1

    def test_explicit_parent_override(self):
        with obs.span("a") as a:
            aid = a.span_id
        with obs.span("b", parent_id=aid):
            pass
        by = _by_name()
        assert by["b"].parent_id == aid


class TestDisabledAndSampling:
    def test_disabled_records_nothing(self):
        obs.configure(enabled=False)
        with obs.span("invisible"):
            pass
        assert len(obs.tracer()) == 0
        assert obs.current_span_id() is None

    def test_disabled_decorator_still_calls_through(self):
        obs.configure(enabled=False)

        @obs.span("invisible")
        def f():
            return 42

        assert f() == 42
        assert len(obs.tracer()) == 0

    def test_sampling_keeps_a_deterministic_stride(self):
        obs.configure(sample=0.25)
        for _ in range(20):
            with obs.span("sampled"):
                pass
        assert len(obs.tracer().find("sampled")) == 5

    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        obs.reset()  # re-reads the environment
        assert not obs.enabled()
        with obs.span("invisible"):
            pass
        assert len(obs.tracer()) == 0

    def test_env_sample_fraction_form(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "1/5")
        obs.reset()
        assert obs.STATE.stride == 5


class TestRingBuffer:
    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(capacity=16)
        for i in range(40):
            with obs.span(f"s{i}"):
                pass
        # record into the private tracer instead: use ingest
        tracer.ingest(obs.tracer().spans())
        assert len(tracer) == 16
        assert tracer.dropped == 24

    def test_drain_empties(self):
        with obs.span("x"):
            pass
        out = obs.tracer().drain()
        assert [s.name for s in out] == ["x"]
        assert len(obs.tracer()) == 0

    def test_wrapped_ring_returns_newest_oldest_first_field_for_field(self):
        tracer = Tracer(capacity=16)
        recs = _records(40)
        for rec in recs:
            tracer.record(rec)
        out = tracer.spans()
        assert out == recs[-16:]
        assert [r.parent_id is None for r in out] == [
            r.parent_id is None for r in recs[-16:]
        ]
        assert any(r.parent_id is None for r in out)
        assert tracer.find("service.queue_wait") == [
            r for r in recs[-16:] if r.name == "service.queue_wait"
        ]

    def test_dropped_counts_overwrites_and_drain_empties(self):
        tracer = Tracer(capacity=8)
        recs = _records(13)
        tracer.ingest(recs)
        assert len(tracer) == 8
        assert tracer.dropped == 5
        assert tracer.drain() == recs[-8:]
        assert len(tracer) == 0
        assert tracer.spans() == []
        # refilling after a drain starts from the front again
        tracer.ingest(recs[:3])
        assert tracer.spans() == recs[:3]
        assert tracer.dropped == 5
        tracer.clear()
        assert tracer.dropped == 0

    def test_ingest_keeps_worker_pids_and_ids(self):
        worker_pid = os.getpid() + 1
        shipped = _records(5, pid=worker_pid, first_id=1000)
        tracer = Tracer(capacity=64)
        tracer.ingest(_records(3))
        tracer.ingest(shipped)
        merged = tracer.spans()[3:]
        assert [r.pid for r in merged] == [worker_pid] * 5
        assert [(r.span_id, r.parent_id) for r in merged] == [
            (r.span_id, r.parent_id) for r in shipped
        ]

    def test_ring_costs_at_most_65_percent_of_a_record_list(self):
        n = 4000
        list_bytes, _ = _traced_bytes(lambda: _records(n))

        def fill_ring():
            tracer = Tracer(capacity=n)
            tracer.ingest(_records(n))
            return tracer

        ring_bytes, ring = _traced_bytes(fill_ring)
        assert len(ring) == n
        assert ring_bytes <= 0.65 * list_bytes, (ring_bytes / n, list_bytes / n)


class TestThreads:
    def test_carry_context_keeps_parent_across_thread_pool(self):
        def work():
            with obs.span("threaded"):
                pass

        with obs.span("submitter") as parent:
            parent_id = parent.span_id
            with ThreadPoolExecutor(max_workers=2) as pool:
                pool.submit(obs.carry_context(work)).result()
        by = _by_name()
        assert by["threaded"].parent_id == parent_id
        assert by["threaded"].tid != by["submitter"].tid

    def test_bare_submit_has_no_parent(self):
        def work():
            with obs.span("orphan"):
                pass

        with obs.span("submitter"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(work).result()
        assert _by_name()["orphan"].parent_id is None

    def test_copy_context_run_also_works(self):
        def work():
            with obs.span("ctxrun"):
                pass

        with obs.span("submitter") as parent:
            parent_id = parent.span_id
            ctx = contextvars.copy_context()
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(ctx.run, work).result()
        assert _by_name()["ctxrun"].parent_id == parent_id


def _process_worker(parent_id):
    """Module-level so it pickles into the pool worker."""
    obs.configure(enabled=True, sample=1.0)
    obs.tracer().clear()  # fork inherits the parent's ring
    with obs.span("proc_outer", parent_id=parent_id):
        with obs.span("proc_inner"):
            pass
    return obs.tracer().drain()


class TestProcesses:
    def test_worker_spans_merge_with_correct_parents(self):
        with obs.span("driver") as parent:
            parent_id = parent.span_id
            with ProcessPoolExecutor(max_workers=1) as pool:
                shipped = pool.submit(_process_worker, parent_id).result()
            obs.tracer().ingest(shipped)
        by = _by_name()
        assert by["proc_outer"].parent_id == parent_id
        assert by["proc_inner"].parent_id == by["proc_outer"].span_id
        # ids embed the pid, so merged ids cannot collide
        assert by["proc_outer"].pid != by["driver"].pid
        assert by["proc_outer"].span_id != by["driver"].span_id


class TestAsyncio:
    def test_tasks_inherit_the_creating_spans_context(self):
        async def child(name):
            with obs.span(name):
                await asyncio.sleep(0)

        async def main():
            with obs.span("request"):
                await asyncio.gather(child("task_a"), child("task_b"))

        asyncio.run(main())
        by = _by_name()
        assert by["task_a"].parent_id == by["request"].span_id
        assert by["task_b"].parent_id == by["request"].span_id

    def test_sibling_tasks_do_not_leak_context_to_each_other(self):
        async def child(name):
            with obs.span(name):
                await asyncio.sleep(0.001)

        async def main():
            await asyncio.gather(child("t1"), child("t2"))

        asyncio.run(main())
        by = _by_name()
        assert by["t1"].parent_id is None
        assert by["t2"].parent_id is None
