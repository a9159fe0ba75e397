"""MicroBatcher behaviour: coalescing, load-driven batches, error propagation."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.service.batching import MicroBatcher, solve_partition_rows
from repro.service.protocol import parse_partition_request

REQ = {"apc_alone": [0.004, 0.007, 0.002], "bandwidth": 0.01}


def make_request(bandwidth=0.01, scheme="sqrt", n=3):
    return parse_partition_request(
        {"scheme": scheme, "apc_alone": [0.004 + 0.001 * i for i in range(n)], "bandwidth": bandwidth}
    )


def run(coro):
    return asyncio.run(coro)


def test_concurrent_submissions_coalesce_into_one_batch():
    sizes = []

    async def main():
        batcher = MicroBatcher(max_batch_size=64, on_batch=sizes.append)
        await batcher.start()
        try:
            outs = await asyncio.gather(
                *[batcher.submit(make_request(bandwidth=0.01 + 0.001 * i)) for i in range(10)]
            )
        finally:
            await batcher.stop()
        return outs

    outs = run(main())
    assert sizes == [10]
    assert all(size == 10 for _, size in outs)
    assert all(isinstance(row, np.ndarray) and row.shape == (3,) for row, _ in outs)


def test_batch_size_cap_splits_bursts():
    sizes = []

    async def main():
        batcher = MicroBatcher(max_batch_size=4, on_batch=sizes.append)
        await batcher.start()
        try:
            await asyncio.gather(*[batcher.submit(make_request(0.01 + 0.001 * i)) for i in range(10)])
        finally:
            await batcher.stop()

    run(main())
    assert sum(sizes) == 10
    assert max(sizes) <= 4


def test_mixed_groups_solved_separately_one_batch():
    """Different schemes share a batch but are stacked separately."""
    sizes = []

    async def main():
        batcher = MicroBatcher(max_batch_size=64, on_batch=sizes.append)
        await batcher.start()
        try:
            outs = await asyncio.gather(
                batcher.submit(make_request(scheme="sqrt", bandwidth=0.01)),
                batcher.submit(make_request(scheme="sqrt", bandwidth=0.02)),
                batcher.submit(make_request(scheme="prop")),
                batcher.submit(make_request(scheme="sqrt", n=4)),
            )
        finally:
            await batcher.stop()
        return outs

    outs = run(main())
    assert sizes == [4]  # one collected batch...
    # ...but only the two (sqrt, 3 apps) requests stacked together; the
    # prop request and the 4-app request each solved in their own group
    assert sorted(size for _, size in outs) == [1, 1, 2, 2]


def test_lone_request_resolves_within_a_few_loop_turns():
    """No timer: a lone submit is solved after a fixed number of turns."""

    async def main():
        batcher = MicroBatcher(max_batch_size=64)
        await batcher.start()
        try:
            future = asyncio.ensure_future(batcher.submit(make_request()))
            turns = 0
            while not future.done() and turns < 50:
                await asyncio.sleep(0)
                turns += 1
            row, size = await future
        finally:
            await batcher.stop()
        return turns, row, size

    turns, row, size = run(main())
    # start the collector, enqueue, drain, yield once, solve, wake the
    # submitter: a handful of turns, however fast or slow the host is
    assert turns <= 8
    assert size == 1
    assert row.shape == (3,)


def test_requests_arriving_during_a_solve_form_the_next_batch():
    """Load, not a timer, grows batches: what queues up while one batch
    is being solved comes out together as the next batch."""
    sizes = []
    late = []

    async def main():
        batcher = None

        def solver(requests):
            if not late:  # first call: five more callers arrive mid-solve
                late.extend(
                    asyncio.ensure_future(
                        batcher.submit(make_request(0.02 + 0.001 * i))
                    )
                    for i in range(5)
                )
            return solve_partition_rows(requests)

        batcher = MicroBatcher(
            max_batch_size=64, on_batch=sizes.append, partition_solver=solver
        )
        await batcher.start()
        try:
            first = await batcher.submit(make_request())
            rest = await asyncio.gather(*late)
        finally:
            await batcher.stop()
        return first, rest

    first, rest = run(main())
    assert sizes == [1, 5]
    assert first[1] == 1
    assert [size for _, size in rest] == [5] * 5


def test_same_group_requests_solved_together():
    sizes = []

    async def main():
        batcher = MicroBatcher(max_batch_size=8, on_batch=sizes.append)
        await batcher.start()
        try:
            outs = await asyncio.gather(
                *[batcher.submit(make_request(0.005 * (i + 1))) for i in range(4)]
            )
        finally:
            await batcher.stop()
        return outs

    outs = run(main())
    assert [size for _, size in outs] == [4, 4, 4, 4]


def test_solver_error_propagates_to_every_waiter():
    async def main():
        batcher = MicroBatcher(max_batch_size=8)
        await batcher.start()
        # bypass parse-time validation: the kernel itself must reject a
        # non-finite matrix and fail only the waiters of that group
        from repro.service.protocol import PartitionRequest

        good = make_request()
        bad = PartitionRequest(
            scheme="sqrt",
            apc_alone=(float("inf"), 1.0),
            api=None,
            bandwidth=0.01,
            metrics=(),
        )
        results = await asyncio.gather(
            batcher.submit(bad), batcher.submit(bad), return_exceptions=True
        )
        good_row, _ = await batcher.submit(good)
        await batcher.stop()
        return results, good_row

    results, good_row = run(main())
    assert all(isinstance(r, Exception) for r in results)
    assert np.all(np.isfinite(good_row))  # batcher kept serving


def test_submit_after_stop_raises():
    async def main():
        batcher = MicroBatcher()
        await batcher.start()
        await batcher.stop()
        with pytest.raises(RuntimeError):
            await batcher.submit(make_request())

    run(main())


def test_stop_fails_queued_requests():
    async def main():
        batcher = MicroBatcher(max_batch_size=8)
        # enqueue without the collector running: start then immediately
        # freeze by not yielding control until stop
        await batcher.start()
        future = asyncio.ensure_future(batcher.submit(make_request()))
        await asyncio.sleep(0.05)  # let it resolve normally
        assert future.done()
        await batcher.stop()

    run(main())


def test_stop_never_strands_a_submitted_request():
    """Whichever loop turn stop() lands on -- request still queued, or
    already taken by the collector -- the submitter gets an answer or
    a shutdown error, never a future that stays pending."""

    async def main(turns):
        batcher = MicroBatcher()
        await batcher.start()
        future = asyncio.ensure_future(batcher.submit(make_request()))
        for _ in range(turns):
            await asyncio.sleep(0)
        await batcher.stop()
        await asyncio.wait([future], timeout=1.0)
        if not future.done():
            future.cancel()
            return "stranded"
        exc = future.exception()
        return "ok" if exc is None else type(exc).__name__

    outcomes = [run(main(turns)) for turns in range(6)]
    assert "stranded" not in outcomes
    assert set(outcomes) == {"ok", "ConnectionError"}
