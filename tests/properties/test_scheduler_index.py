"""Property tests for the scheduler's per-(app, channel) queue index.

``Scheduler.has_pending`` / ``pending_apps`` / ``pending_count`` are
backed by counters built on the first per-channel question and then
maintained incrementally (in ``enqueue`` / ``_take``) instead of queue
scans.  These tests drive random enqueue/serve interleavings through
real scheduler subclasses -- including channel-free prefixes that must
leave the index unbuilt -- and check the answers against a brute-force
scan of the actual queues after every single operation.  FCFS's
age-ordered lane is checked the same way against a ``heapq.merge`` of
the per-app queues.
"""

from __future__ import annotations

import bisect
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.mc.base import Scheduler
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.mc.priority import PriorityScheduler
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.sim.request import Request

N_APPS = 4
N_CHANNELS = 3

# one operation: (app, channel, serve?, serve_channel)
_ops = st.lists(
    st.tuples(
        st.integers(0, N_APPS - 1),
        st.integers(0, N_CHANNELS - 1),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, N_CHANNELS - 1)),
    ),
    max_size=80,
)


def _brute_has_pending(sched: Scheduler, channel: int | None) -> bool:
    return any(
        channel is None or r.channel == channel for q in sched.queues for r in q
    )


def _brute_pending_apps(sched: Scheduler, channel: int | None) -> list[int]:
    return [
        a
        for a, q in enumerate(sched.queues)
        if any(channel is None or r.channel == channel for r in q)
    ]


def _brute_count(sched: Scheduler, app: int, channel: int | None) -> int:
    return sum(
        1 for r in sched.queues[app] if channel is None or r.channel == channel
    )


def _check_index(sched: Scheduler) -> None:
    for ch in (None, *range(N_CHANNELS)):
        assert sched.has_pending(ch) == _brute_has_pending(sched, ch)
        assert list(sched.pending_apps(ch)) == _brute_pending_apps(sched, ch)
        for app in range(N_APPS):
            assert sched.pending_count(app, ch) == _brute_count(sched, app, ch)
    assert sched.total_queued == sum(len(q) for q in sched.queues)


def _drive(sched: Scheduler, ops) -> tuple[int, int]:
    """Run ``ops``; return (requests enqueued, non-None selects)."""
    now = 0.0
    n = 0
    served = 0
    for app, chan, serve, serve_chan in ops:
        now += 1.0
        if serve and sched.total_queued:
            served += sched.select(now, channel=serve_chan) is not None
        else:
            req = Request(app, n, bool(n % 5 == 0), now, channel=chan)
            n += 1
            sched.enqueue(req, now)
        _check_index(sched)
    return n, served


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_fcfs_index_matches_bruteforce(ops):
    _drive(FCFSScheduler(N_APPS), ops)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_stf_index_matches_bruteforce(ops):
    beta = np.full(N_APPS, 1.0 / N_APPS)
    _drive(StartTimeFairScheduler(N_APPS, beta), ops)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_priority_index_matches_bruteforce(ops):
    _drive(PriorityScheduler(N_APPS, list(range(N_APPS))), ops)


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_served_plus_queued_is_conserved(ops):
    sched = FCFSScheduler(N_APPS)
    enqueued, served = _drive(sched, ops)
    assert enqueued == served + sched.total_queued


# ----------------------------------------------------------------------
# the index is built lazily, by the first per-channel question
# ----------------------------------------------------------------------
#: one channel-free operation: (app, channel, serve?)
_unfiltered_ops = st.lists(
    st.tuples(
        st.integers(0, N_APPS - 1),
        st.integers(0, N_CHANNELS - 1),
        st.booleans(),
    ),
    max_size=40,
)

_SCHEDULERS = {
    "fcfs": lambda: FCFSScheduler(N_APPS),
    "stf": lambda: StartTimeFairScheduler(N_APPS, np.full(N_APPS, 1.0 / N_APPS)),
    "priority": lambda: PriorityScheduler(N_APPS, [2, 0, 3, 1]),
}


def _check_unfiltered(sched: Scheduler) -> None:
    assert sched.has_pending() == _brute_has_pending(sched, None)
    assert list(sched.pending_apps()) == _brute_pending_apps(sched, None)
    for app in range(N_APPS):
        assert sched.pending_count(app) == _brute_count(sched, app, None)
    assert sched.total_queued == sum(len(q) for q in sched.queues)


@pytest.mark.parametrize("kind", sorted(_SCHEDULERS))
@settings(max_examples=40, deadline=None)
@given(prefix=_unfiltered_ops, ops=_ops)
def test_index_is_built_by_the_first_channel_query(kind, prefix, ops):
    """A channel-free prefix (what a one-channel engine run does) never
    builds the index; the first per-channel question builds it from the
    queues as they are, and it then tracks them op by op."""
    sched = _SCHEDULERS[kind]()
    now = 0.0
    for n, (app, chan, serve) in enumerate(prefix):
        now += 1.0
        if serve and sched.total_queued:
            sched.select(now)
        else:
            sched.enqueue(Request(app, n, n % 3 == 0, now, channel=chan), now)
        _check_unfiltered(sched)
        assert sched._chan_index is None
    _drive(sched, ops)


# ----------------------------------------------------------------------
# FCFS's single age-ordered lane == a k-way merge of the per-app queues
# ----------------------------------------------------------------------
#: one FCFS operation: (app, channel, bank, enqueue-cycle jitter,
#: enqueue the pair of requests in reverse creation order?, serve?,
#: serve channel, banks ready at that select)
_fcfs_ops = st.lists(
    st.tuples(
        st.integers(0, N_APPS - 1),
        st.integers(0, N_CHANNELS - 1),
        st.integers(0, 7),
        st.integers(-3, 3),
        st.booleans(),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, N_CHANNELS - 1)),
        st.frozensets(st.integers(0, 7)),
    ),
    max_size=80,
)


def _age(req: Request) -> tuple[float, int]:
    return (req.enqueued, req.seq)


@settings(max_examples=80, deadline=None)
@given(ops=_fcfs_ops)
def test_fcfs_lane_matches_age_merge(ops):
    """The reference serves the first bank-ready request of a
    ``heapq.merge`` by ``(enqueued, seq)`` over the per-app lanes (each
    kept age-sorted), else the first request at all.  Enqueue cycles
    jump backwards and pairs of requests arrive out of creation order,
    so the lane's bisect insert is exercised."""
    sched = FCFSScheduler(N_APPS)
    lanes: list[list[Request]] = [[] for _ in range(N_APPS)]
    now = 10.0
    for app, chan, bank, jitter, swap, serve, serve_chan, ready_banks in ops:
        now += 1.0
        if serve and sched.total_queued:
            def ready(r: Request) -> bool:
                return r.bank in ready_banks

            merged = list(
                heapq.merge(
                    *(
                        [r for r in lane if serve_chan is None or r.channel == serve_chan]
                        for lane in lanes
                    ),
                    key=_age,
                )
            )
            expected = next(
                (r for r in merged if ready(r)), merged[0] if merged else None
            )
            assert sched.select(now, ready, serve_chan) is expected
            if expected is not None:
                lanes[expected.app_id].remove(expected)
        else:
            pair = [
                Request(app, 0, False, now, channel=chan, bank=bank),
                Request(app, 1, True, now, channel=chan, bank=(bank + 1) % 8),
            ]
            for req in reversed(pair) if swap else pair:
                sched.enqueue(req, now + jitter)
                bisect.insort(lanes[app], req, key=_age)
        for app_id, q in enumerate(sched.queues):
            assert sorted(q, key=_age) == lanes[app_id]
