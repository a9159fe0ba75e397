"""Reference tests for the engine's hot-path orders and the write coin.

* STF keeps every app in one ``(tag, app_id)`` list, ascending, and
  moves only the served app per select; the reference below is the
  earlier select, which sorted the pending apps by tag on every call
  (a stable sort of an ascending app list, so ties go to the lower app
  id).  Random enqueue/select/``update_shares`` sequences -- zero and
  tied shares, both tag rules, 1-16 apps, one and two channels, random
  bank readiness -- must pick the same request and leave the same tags.
* The priority select walks ``priority_order`` directly; the
  reference builds the list of pending apps first (one and two
  channels, with and without the starvation cap).
* On one channel, STF and priority take a chosen head straight off its
  deque; with the channel index built first (``indexed``), they must
  keep it equal to a brute-force count of the queues.
* PAR-BS and TCM walk apps in rank order and stop at the first app
  with a candidate; the references are the full scans they replaced,
  which build a ``(not marked, rank, enqueued, seq)`` (PAR-BS) or
  ``(rank, enqueued, seq)`` (TCM) key for every queued request and
  take the least, ready requests first.  The references also keep
  their own ranks (the rank list the full scan reads), so a rank order
  left stale by a batch or a recluster fails.  Random queues include
  requests enqueued out of time order and pairs enqueued in reverse
  creation order at one cycle.
* ``CoreSim`` draws its read/write coin from one raw PCG64 word; over
  10k+ accesses (stalls and resumes included) the coins and gaps must
  be what a fresh ``Generator`` of the same seed gives from
  ``random()`` and then ``exponential(1/api)``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cpu import CorePhase, CoreSim, CoreSpec
from repro.sim.dram.config import ddr2_400
from repro.sim.mc.base import ReadyProbe, Scheduler, _always_ready
from repro.sim.mc.parbs import PARBSScheduler
from repro.sim.mc.priority import PriorityScheduler
from repro.sim.mc.stf import StartTimeFairScheduler
from repro.sim.mc.tcm import TCMScheduler
from repro.sim.request import Request
from repro.sim.stream import MissAddressStream
from repro.util.rng import RngStream

N_BANKS = 8


class SortingSTF(StartTimeFairScheduler):
    """The reference: sort the pending apps by tag on every select."""

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        queues = self.queues
        if channel is None:
            pending = [a for a in range(self.n_apps) if queues[a]]
        else:
            chan_pending = self._channel_index()[0]
            pending = [
                a for a in range(self.n_apps) if chan_pending[a].get(channel, 0)
            ]
        if not pending:
            return None
        pending.sort(key=self._tags.__getitem__)
        if channel is None:
            for app_id in pending:
                for req in queues[app_id]:
                    if ready(req):
                        self._advance_tag(app_id)
                        return self._take(req)
            app_id = pending[0]
            self._advance_tag(app_id)
            return self._take(queues[app_id][0])
        for app_id in pending:
            req = self._oldest_ready(app_id, ready, channel)
            if req is not None:
                self._advance_tag(app_id)
                return self._take(req)
        app_id = pending[0]
        self._advance_tag(app_id)
        return self._pop_head(app_id, channel)

    def _advance_tag(self, app_id: int) -> None:
        stride = self._strides[app_id]
        tags = self._tags
        if self.arrival_coupled:
            tag = max(tags[app_id], self._virtual_now) + stride
        else:
            tag = tags[app_id] + stride
        tags[app_id] = tag
        if tag - stride > self._virtual_now:
            self._virtual_now = tag - stride


class PendingListPriority(PriorityScheduler):
    """The reference: build the list of pending apps first, then walk it."""

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        if self.starvation_cap is not None:
            best: Request | None = None
            for app_id in self.pending_apps(channel):
                head = next(self._requests(app_id, channel))
                if now - head.enqueued > self.starvation_cap and (
                    best is None or (head.enqueued, head.seq) < (best.enqueued, best.seq)
                ):
                    best = head
            if best is not None:
                return self._take(best)
        if channel is None:
            queues = self.queues
            pending = [a for a in self.priority_order if queues[a]]
            for app_id in pending:
                for req in queues[app_id]:
                    if ready(req):
                        return self._take(req)
            for app_id in pending:
                return self._take(queues[app_id][0])
            return None
        pending = [
            a for a in self.priority_order if self.pending_count(a, channel)
        ]
        for app_id in pending:
            req = self._oldest_ready(app_id, ready, channel)
            if req is not None:
                return self._take(req)
        for app_id in pending:
            return self._pop_head(app_id, channel)
        return None


class FullScanPARBS(PARBSScheduler):
    """The reference: rank per batch, and key every queued request."""

    def __init__(self, n_apps: int, marking_cap: int = 5) -> None:
        super().__init__(n_apps, marking_cap)
        self._rank = list(range(n_apps))

    def _form_batch(self) -> None:
        counts = [0] * self.n_apps
        self._batch.clear()
        for app_id, q in enumerate(self.queues):
            for req in list(q)[: self.marking_cap]:
                self._batch.add(req.seq)
                counts[app_id] += 1
        order = sorted(range(self.n_apps), key=lambda a: (counts[a], a))
        self._rank = [0] * self.n_apps
        for pos, app in enumerate(order):
            self._rank[app] = pos
        self.n_batches += 1

    def _batch_pending(self, channel: int | None) -> bool:
        return any(
            req.seq in self._batch
            for q in self.queues
            for req in q
            if channel is None or req.channel == channel
        )

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        if not self.has_pending(channel):
            return None
        if not self._batch_pending(None):
            self._form_batch()

        def candidates(only_ready: bool):
            best: Request | None = None
            best_key = None
            for app_id in range(self.n_apps):
                for req in self._requests(app_id, channel):
                    if only_ready and not ready(req):
                        continue
                    marked = req.seq in self._batch
                    key = (not marked, self._rank[app_id], req.enqueued, req.seq)
                    if best_key is None or key < best_key:
                        best, best_key = req, key
            return best

        chosen = candidates(only_ready=True) or candidates(only_ready=False)
        if chosen is None:
            return None
        self._batch.discard(chosen.seq)
        return self._take(chosen)


class FullScanTCM(TCMScheduler):
    """The reference: rank per recluster, and key every queued request."""

    def __init__(self, n_apps: int, **kw) -> None:
        super().__init__(n_apps, **kw)
        self._rank = list(range(n_apps))

    def _recluster(self) -> None:
        total = sum(self._arrivals_epoch)
        order = sorted(
            range(self.n_apps), key=lambda a: (self._arrivals_epoch[a], a)
        )
        self.latency_cluster = set()
        acc = 0
        for app in order:
            if total == 0 or (acc + self._arrivals_epoch[app]) <= (
                self.cluster_fraction * total
            ):
                self.latency_cluster.add(app)
                acc += self._arrivals_epoch[app]
            else:
                break
        bandwidth = [a for a in order if a not in self.latency_cluster]
        self._shuffle_offset += 1
        if bandwidth:
            k = self._shuffle_offset % len(bandwidth)
            bandwidth = bandwidth[k:] + bandwidth[:k]
        ranked = [a for a in order if a in self.latency_cluster] + bandwidth
        self._rank = [0] * self.n_apps
        for pos, app in enumerate(ranked):
            self._rank[app] = pos
        self._arrivals_epoch = [0] * self.n_apps
        self._since_recluster = 0
        self.n_reclusters += 1

    def select(
        self,
        now: float,
        ready: ReadyProbe = _always_ready,
        channel: int | None = None,
    ) -> Request | None:
        if self._since_recluster >= self.epoch_requests:
            self._recluster()

        def candidates(only_ready: bool):
            best: Request | None = None
            best_key = None
            for app_id in range(self.n_apps):
                for req in self._requests(app_id, channel):
                    if only_ready and not ready(req):
                        continue
                    key = (self._rank[app_id], req.enqueued, req.seq)
                    if best_key is None or key < best_key:
                        best, best_key = req, key
            return best

        chosen = candidates(only_ready=True) or candidates(only_ready=False)
        if chosen is None:
            return None
        self._since_recluster += 1
        return self._take(chosen)


def _index_matches_queues(sched: Scheduler) -> bool:
    """The built channel index counts exactly what the queues hold."""
    per_app, total = sched._chan_index
    want_total: dict[int, int] = {}
    for app_id, q in enumerate(sched.queues):
        counts: dict[int, int] = {}
        for req in q:
            counts[req.channel] = counts.get(req.channel, 0) + 1
            want_total[req.channel] = want_total.get(req.channel, 0) + 1
        if per_app[app_id] != counts:
            return False
    return total == want_total


def _beta(weights: list[int]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


#: per-app share weights: 0 is a zero share, equal weights tie the tags
_weights = st.lists(st.integers(0, 3), min_size=1, max_size=16).filter(any)


@st.composite
def _scenarios(draw):
    weights = draw(_weights)
    n = len(weights)
    n_channels = draw(st.sampled_from([1, 2]))
    # one op: ("enq", app, channel, bank) | ("sel", channel, ready banks)
    # | ("shares", weights)
    op = st.one_of(
        st.tuples(
            st.just("enq"),
            st.integers(0, n - 1),
            st.integers(0, n_channels - 1),
            st.integers(0, N_BANKS - 1),
        ),
        st.tuples(
            st.just("sel"),
            st.integers(0, n_channels - 1),
            st.frozensets(st.integers(0, N_BANKS - 1), max_size=3),
        ),
        st.tuples(
            st.just("shares"),
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
        ),
    )
    ops = draw(st.lists(op, max_size=120))
    return weights, n_channels, ops


@pytest.mark.parametrize("arrival_coupled", [False, True])
@settings(max_examples=80, deadline=None)
@given(scenario=_scenarios())
def test_stf_order_list_matches_per_select_sort(arrival_coupled, scenario):
    weights, n_channels, ops = scenario
    n = len(weights)
    beta = _beta(weights)
    fast = StartTimeFairScheduler(n, beta, arrival_coupled=arrival_coupled)
    ref = SortingSTF(n, beta, arrival_coupled=arrival_coupled)
    now = 0.0
    for k, op in enumerate(ops):
        now += 1.0
        if op[0] == "enq":
            _, app, chan, bank = op
            for sched in (fast, ref):
                sched.enqueue(Request(app, k, False, now, chan, bank), now)
        elif op[0] == "sel":
            _, chan, ready_banks = op
            channel = chan if n_channels > 1 else None

            def ready(r: Request) -> bool:
                return r.bank in ready_banks

            got = fast.select(now, ready, channel)
            want = ref.select(now, ready, channel)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.app_id, got.line_addr) == (want.app_id, want.line_addr)
        else:
            for sched in (fast, ref):
                sched.update_shares(_beta(op[1]))
        assert fast._tags == ref._tags
        assert fast._virtual_now == ref._virtual_now
        assert fast._order == sorted((t, a) for a, t in enumerate(fast._tags))


@st.composite
def _priority_scenarios(draw):
    n = draw(st.integers(1, 16))
    order = draw(st.permutations(range(n)))
    n_channels = draw(st.sampled_from([1, 2]))
    cap = draw(st.sampled_from([None, None, 8.0, 30.0]))
    op = st.one_of(
        st.tuples(
            st.just("enq"),
            st.integers(0, n - 1),
            st.integers(0, n_channels - 1),
            st.integers(0, N_BANKS - 1),
        ),
        st.tuples(
            st.just("sel"),
            st.integers(0, n_channels - 1),
            st.frozensets(st.integers(0, N_BANKS - 1), max_size=3),
        ),
    )
    return n, order, n_channels, cap, draw(st.lists(op, max_size=120))


@settings(max_examples=120, deadline=None)
@given(scenario=_priority_scenarios())
def test_priority_walk_matches_pending_list(scenario):
    n, order, n_channels, cap, ops = scenario
    fast = PriorityScheduler(n, order, starvation_cap=cap)
    ref = PendingListPriority(n, order, starvation_cap=cap)
    now = 0.0
    for k, op in enumerate(ops):
        now += 1.0
        if op[0] == "enq":
            _, app, chan, bank = op
            for sched in (fast, ref):
                sched.enqueue(Request(app, k, False, now, chan, bank), now)
            continue
        _, chan, ready_banks = op
        channel = chan if n_channels > 1 else None

        def ready(r: Request) -> bool:
            return r.bank in ready_banks

        got = fast.select(now, ready, channel)
        want = ref.select(now, ready, channel)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.app_id, got.line_addr) == (want.app_id, want.line_addr)


def _ready_banks(ready_banks: frozenset[int]) -> ReadyProbe:
    def ready(r: Request) -> bool:
        return r.bank in ready_banks

    return ready


@settings(max_examples=60, deadline=None)
@given(scenario=_scenarios())
def test_stf_head_take_keeps_a_built_index(scenario):
    """One channel, index built before the first op: the head-take must
    hand over to ``_take``, which keeps the index counting the queues."""
    weights, _n_channels, ops = scenario
    n = len(weights)
    fast = StartTimeFairScheduler(n, _beta(weights))
    ref = SortingSTF(n, _beta(weights))
    assert not fast.has_pending(0)  # builds the channel index
    now = 0.0
    enqueued = served = 0
    for k, op in enumerate(ops):
        now += 1.0
        if op[0] == "enq":
            _, app, _chan, bank = op
            for sched in (fast, ref):
                sched.enqueue(Request(app, k, False, now, 0, bank), now)
            enqueued += 1
        elif op[0] == "sel":
            ready = _ready_banks(op[2])
            got = fast.select(now, ready)
            want = ref.select(now, ready)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.app_id, got.line_addr) == (want.app_id, want.line_addr)
                served += 1
        else:
            for sched in (fast, ref):
                sched.update_shares(_beta(op[1]))
        assert _index_matches_queues(fast)
        assert fast.total_queued == ref.total_queued
        assert fast.total_queued == enqueued - served


@settings(max_examples=60, deadline=None)
@given(scenario=_priority_scenarios())
def test_priority_head_take_keeps_a_built_index(scenario):
    n, order, _n_channels, cap, ops = scenario
    fast = PriorityScheduler(n, order, starvation_cap=cap)
    ref = PendingListPriority(n, order, starvation_cap=cap)
    assert not fast.has_pending(0)  # builds the channel index
    now = 0.0
    enqueued = served = 0
    for k, op in enumerate(ops):
        now += 1.0
        if op[0] == "enq":
            _, app, _chan, bank = op
            for sched in (fast, ref):
                sched.enqueue(Request(app, k, False, now, 0, bank), now)
            enqueued += 1
        else:
            ready = _ready_banks(op[2])
            got = fast.select(now, ready)
            want = ref.select(now, ready)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.app_id, got.line_addr) == (want.app_id, want.line_addr)
                served += 1
        assert _index_matches_queues(fast)
        assert fast.total_queued == ref.total_queued
        assert fast.total_queued == enqueued - served


@st.composite
def _heuristic_scenarios(draw):
    n = draw(st.integers(2, 8))
    n_channels = draw(st.sampled_from([1, 2]))
    app = st.integers(0, n - 1)
    chan = st.integers(0, n_channels - 1)
    bank = st.integers(0, N_BANKS - 1)
    # ("enq", app, channel, bank, dt): enqueued at now + dt, so a
    # negative dt enqueues out of time order; ("enq2", ...): two
    # requests enqueued at one cycle, the younger (larger seq) first;
    # ("sel", channel, ready banks)
    op = st.one_of(
        st.tuples(st.just("enq"), app, chan, bank, st.integers(-3, 3)),
        st.tuples(st.just("enq2"), app, chan, bank, bank),
        st.tuples(
            st.just("sel"),
            chan,
            st.frozensets(st.integers(0, N_BANKS - 1), max_size=3),
        ),
    )
    # long runs: ranks only depart from app order after a batch or a
    # recluster has seen uneven traffic
    return n, n_channels, draw(st.lists(op, min_size=50, max_size=120))


def _drive_heuristic(fast, ref, n_channels, ops, check_state) -> None:
    """Apply ``ops`` to both schedulers (the same request objects) and
    require the same pick, and ``check_state``, after every op."""
    now = 0.0
    for k, op in enumerate(ops):
        now += 1.0
        if op[0] == "enq":
            _, app, chan, bank, dt = op
            req = Request(app, k, False, now + dt, chan, bank)
            for sched in (fast, ref):
                sched.enqueue(req, now + dt)
        elif op[0] == "enq2":
            _, app, chan, bank, bank2 = op
            older = Request(app, k, False, now, chan, bank)
            younger = Request(app, k, False, now, chan, bank2)
            for sched in (fast, ref):
                sched.enqueue(younger, now)
                sched.enqueue(older, now)
        else:
            _, chan, ready_banks = op
            channel = chan if n_channels > 1 else None
            ready = _ready_banks(ready_banks)
            got = fast.select(now, ready, channel)
            want = ref.select(now, ready, channel)
            assert got is want
        check_state(fast, ref)


@settings(max_examples=60, deadline=None)
@given(scenario=_heuristic_scenarios(), cap=st.integers(1, 4))
def test_parbs_rank_walk_matches_full_scan(scenario, cap):
    n, n_channels, ops = scenario

    def check_state(fast, ref):
        assert fast._batch == ref._batch
        assert fast.n_batches == ref.n_batches
        if ref.n_batches:
            assert [ref._rank[a] for a in fast._order] == list(range(n))

    _drive_heuristic(
        PARBSScheduler(n, cap), FullScanPARBS(n, cap), n_channels, ops,
        check_state,
    )


@settings(max_examples=60, deadline=None)
@given(
    scenario=_heuristic_scenarios(),
    fraction=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    epoch=st.integers(1, 8),
)
def test_tcm_rank_walk_matches_full_scan(scenario, fraction, epoch):
    n, n_channels, ops = scenario

    def check_state(fast, ref):
        assert fast.n_reclusters == ref.n_reclusters
        assert fast.latency_cluster == ref.latency_cluster
        assert [ref._rank[a] for a in fast._order] == list(range(n))

    kw = {"cluster_fraction": fraction, "epoch_requests": epoch}
    _drive_heuristic(
        TCMScheduler(n, **kw), FullScanTCM(n, **kw), n_channels, ops,
        check_state,
    )


# ----------------------------------------------------------------------
# the write coin: one raw word, what Generator.random() reads
# ----------------------------------------------------------------------
_PHASES = (CorePhase(5e4, 0.03, 0.8), CorePhase(2e5, 0.005, 2.0))


@pytest.mark.parametrize("phased", [False, True], ids=["steady", "phased"])
@pytest.mark.parametrize("wf", [0.0, 0.4, 1.0])
def test_core_coin_and_gaps_match_a_fresh_generator(wf, phased):
    """Stalls (MLP 3, write queue 2) interleave coin-only accesses and
    resume-only gaps, so a coin that consumed more or fewer bits than
    ``random()`` would shift every later draw."""
    spec = CoreSpec(
        name="c", api=0.01, ipc_peak=1.5, mlp=3, write_fraction=wf,
        write_queue_cap=2, phases=_PHASES if phased else (),
    )
    stream = MissAddressStream(ddr2_400(), spec.stream, 0, RngStream(3, "s"))
    core = CoreSim(0, spec, stream, RngStream(3, "core"))
    gen = RngStream(3, "core").generator  # a fresh Generator, same seed

    def access_after(now: float) -> float:
        api, ipc_peak = spec.params_at(now)
        return now + gen.exponential(1.0 / api) / ipc_peak

    nxt = core.start(0.0)
    assert nxt == access_after(0.0)
    outstanding: deque[Request] = deque()
    coins = []
    for _ in range(10_000):
        now = nxt
        req, nxt = core.generate_access(now)
        coins.append(req.is_write)
        assert req.is_write == (gen.random() < wf)
        outstanding.append(req)
        while nxt is None:  # stalled: complete the oldest until it resumes
            done = outstanding.popleft()
            now += 7.0
            resume = core.drain_write if done.is_write else core.complete_read
            nxt = resume(now)
        assert nxt == access_after(now)
    if 0.0 < wf < 1.0:
        assert 0.3 < np.mean(coins) < 0.5
    if phased:
        assert now > _PHASES[1].start_cycle  # every phase was exercised


def test_core_coin_is_exactly_generator_random():
    """A write fraction equal to the k-th ``random()`` value is a miss
    (``u < wf`` is false) and the next float up is a hit: the coin
    reads exactly ``Generator.random()``, down to the last bit."""
    gen = RngStream(5, "core").generator
    gen.exponential(100.0)  # the first gap
    uniforms = []
    for _ in range(16):
        uniforms.append(gen.random())
        gen.exponential(100.0)
    for k, u in enumerate(uniforms):
        for wf, hit in ((u, False), (float(np.nextafter(u, 1.0)), True)):
            spec = CoreSpec(name="c", api=0.01, ipc_peak=1.0, mlp=64,
                            write_fraction=wf, write_queue_cap=64)
            stream = MissAddressStream(ddr2_400(), spec.stream, 0, RngStream(5, "s"))
            core = CoreSim(0, spec, stream, RngStream(5, "core"))
            nxt = core.start(0.0)
            for _ in range(k + 1):
                req, nxt = core.generate_access(nxt)
            assert req.is_write is hit
