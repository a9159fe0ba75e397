"""The cycle-level simulation engine (cores -> controller -> DRAM).

Event-driven rather than tick-driven: with the paper's DDR2-400 system,
one 64 B line occupies the data bus for 100 CPU cycles, so the event
count is ~3 per memory access (its MISS, the PUMP that issues it and
its COMPLETE) and a multi-million-cycle window costs only tens of
thousands of heap operations -- the guide-recommended "algorithmic
optimization before micro-optimization".

Event kinds (priority-ordered at equal timestamps; ``Engine._run``
handles the first three inline, in one flat loop):

1. ``COMPLETE`` -- a DRAM data transfer finished (may resume a core);
2. ``MISS``     -- a core's next off-chip access fires;
3. ``PUMP``     -- the controller tries to issue on a free data bus;
4. ``EPOCH``    -- profiling / re-partitioning boundary (Sec. IV-C).

Interference accounting (for the Sec. IV-C profiler): whenever the
controller dedicates the bus to application *j* for the interval
``[issue, data_end)``, every other application with at least one queued
request accrues that interval as ``T_cyc_interference`` -- precisely the
"request blocked by another application's request" condition of the
paper, detected at bus-grant granularity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import obs
from repro.sim.cpu import CoreSim, CoreSpec
from repro.sim.dram.config import DRAMConfig, ddr2_400
from repro.sim.dram.system import DRAMSystem
from repro.sim.mc.base import Scheduler
from repro.sim.mc.fcfs import FCFSScheduler
from repro.sim.profiler import OnlineProfiler
from repro.sim.request import Request
from repro.sim.stats import AppCounters, AppWindowResult, SimResult
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStream
from repro.sim.stream import MissAddressStream

__all__ = ["SimConfig", "Engine", "simulate", "run_alone"]

# event priorities at equal timestamps
_P_COMPLETE, _P_MISS, _P_PUMP, _P_EPOCH = 0, 1, 2, 3


@dataclass(frozen=True)
class SimConfig:
    """Run lengths and bookkeeping knobs for one simulation."""

    dram: DRAMConfig = field(default_factory=ddr2_400)
    warmup_cycles: float = 200_000.0
    measure_cycles: float = 1_000_000.0
    seed: int = 1
    #: profiling / re-partitioning epoch; None disables EPOCH events
    epoch_cycles: float | None = None
    #: when does a bus grant to app j count as interference for app i?
    #: "stalled"  -- app i has queued requests AND its core is memory-
    #:              stalled (the STFM-style gating the paper cites);
    #: "pending"  -- app i merely has queued requests (raw counting).
    interference_mode: str = "stalled"

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ConfigurationError("invalid window lengths")
        if self.epoch_cycles is not None and self.epoch_cycles <= 0:
            raise ConfigurationError("epoch_cycles must be positive")
        if self.interference_mode not in ("stalled", "pending"):
            raise ConfigurationError(
                f"interference_mode must be 'stalled' or 'pending', "
                f"got {self.interference_mode!r}"
            )

    @property
    def end_cycle(self) -> float:
        return self.warmup_cycles + self.measure_cycles


#: hook called at each epoch: (now, profiler, scheduler) -> next epoch
#: length in cycles, or None to keep the configured ``epoch_cycles``.
#: Adaptive controllers (repro.control) shorten the window right after
#: a detected phase change and return to the base cadence once settled.
RepartitionHook = Callable[[float, OnlineProfiler, Scheduler], "float | None"]


class Engine:
    """Binds cores, a scheduler and the DRAM system; runs the event loop."""

    def __init__(
        self,
        specs: Sequence[CoreSpec],
        scheduler: Scheduler,
        config: SimConfig,
        *,
        repartition_hook: RepartitionHook | None = None,
    ) -> None:
        if len(specs) == 0:
            raise ConfigurationError("need at least one core")
        if scheduler.n_apps != len(specs):
            raise ConfigurationError(
                f"scheduler sized for {scheduler.n_apps} apps but workload has "
                f"{len(specs)}"
            )
        self.specs = list(specs)
        self.scheduler = scheduler
        self.config = config
        self.dram = DRAMSystem(config.dram)
        self.repartition_hook = repartition_hook

        self.cores: list[CoreSim] = []
        for i, spec in enumerate(self.specs):
            stream_rng = RngStream(config.seed, f"stream.{i}.{spec.name}")
            core_rng = RngStream(config.seed, f"core.{i}.{spec.name}")
            stream = MissAddressStream(config.dram, spec.stream, i, stream_rng)
            self.cores.append(CoreSim(i, spec, stream, core_rng))

        self.counters = [AppCounters() for _ in self.specs]
        self.profiler = OnlineProfiler(len(self.specs), config.dram.peak_apc)

        #: (time, priority, seq, payload); the payload's type follows the kind
        self._heap: list[tuple[float, int, int, Any]] = []
        #: the last event sequence number handed out (heap tie-breaker)
        self._seq = 0
        #: the sole interference accumulator, folded into AppCounters at
        #: the points that read them (epoch, warmup snapshot, finalize)
        self._interf = [0.0] * len(self.specs)
        self.now = 0.0
        # snapshots taken at the warmup boundary
        self._warmup_snapshot: list[AppCounters] | None = None
        self._warmup_bus_busy = 0.0
        # telemetry: accumulated locally (never per-event registry
        # traffic on the hot loop), flushed once in _finalize
        self._n_events = 0
        self._n_epochs = 0

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, prio: int, payload: object) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, prio, seq, payload))

    def _handle_epoch(self, now: float) -> None:
        self._n_epochs += 1
        interf = self._interf
        next_len: float | None = None
        with obs.span("engine.scheduler_round", attrs={"cycle": now}):
            for i, core in enumerate(self.cores):
                self.counters[i].instructions = core.instructions_at(now)
                self.counters[i].interference_cycles = interf[i]
            self.profiler.close_epoch(now, self.counters)
            if self.repartition_hook is not None:
                next_len = self.repartition_hook(
                    now, self.profiler, self.scheduler
                )
        if self.config.epoch_cycles is not None:
            step = self.config.epoch_cycles if next_len is None else float(next_len)
            if step <= 0:
                raise SimulationError(
                    f"repartition hook returned a non-positive epoch length {step}"
                )
            nxt = now + step
            if nxt < self.config.end_cycle - 1e-9:
                self._push(nxt, _P_EPOCH, "epoch")

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        with obs.span(
            "engine.run",
            attrs={
                "scheduler": self.scheduler.name,
                "apps": len(self.specs),
                "dram": self.config.dram.name,
                "seed": self.config.seed,
            },
        ):
            return self._run()

    def _run(self) -> SimResult:
        """The event loop, with COMPLETE, MISS and PUMP handled inline.

        What those three touch (heap, scheduler, channel, each core's
        bound methods, the interference accumulator) is bound to locals
        once per run; sequence numbers come from one local int that
        ``_push`` and ``_handle_epoch`` share through ``self._seq``.

        PUMP issues on one channel while its bus schedule has room,
        committing the next request up to ``tRCD + CL`` cycles (plus
        ``tRP`` on open pages) before the bus frees: its activate
        overlaps the in-flight transfer and bursts land back-to-back,
        which is what makes the peak 1-line-per-burst rate reachable.
        Each channel is pumped independently; policy state (tags,
        priorities, age order) stays global, only the candidates are
        channel-filtered.  ``stalled`` mirrors the memory-stalled cores
        (MISS adds, COMPLETE removes), so the one-channel stall-gated
        interference loop walks only apps that can accrue interference.
        """
        cfg = self.config
        dram_cfg = cfg.dram
        for i, core in enumerate(self.cores):
            self._push(core.start(0.0), _P_MISS, i)
        self.profiler.begin_epoch(0.0, self.counters)
        if cfg.epoch_cycles is not None:
            self._push(cfg.epoch_cycles, _P_EPOCH, "epoch")

        end = cfg.end_cycle
        warmup = cfg.warmup_cycles
        warmup_done = warmup <= 0
        if warmup_done:
            self._take_warmup_snapshot(0.0)
        # the warmup->measure boundary is mid-loop, so the phase spans
        # use the imperative begin()/end() lifecycle
        phase = obs.span(
            "engine.measure" if warmup_done else "engine.warmup"
        ).begin()

        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq = self._seq
        scheduler = self.scheduler
        select = scheduler.select
        enqueue = scheduler.enqueue
        queues = scheduler.queues
        generate = [core.generate_access for core in self.cores]
        complete_read = [core.complete_read for core in self.cores]
        drain_write = [core.drain_write for core in self.cores]
        counters = self.counters
        interf = self._interf
        stalled: set[int] = set()
        channels = self.dram.channels
        pump_scheduled = [False] * len(channels)
        multi_channel = len(channels) > 1
        stall_gated = cfg.interference_mode == "stalled"
        mc_cycles = dram_cfg.mc_cycles
        open_page = dram_cfg.page_policy == "open"
        act_to_data = dram_cfg.trcd_cycles + dram_cfg.cl_cycles
        # open-page conflicts pay precharge+activate before CAS, so the
        # controller must commit further ahead to keep the bus gapless
        lookahead = act_to_data + (dram_cfg.trp_cycles if open_page else 0.0)

        # The current pump's channel and the readiness probe (would the
        # bank deliver the moment the bus frees?), built once per run,
        # reading the pump's inputs from this frame.  Bank state is
        # frozen until the issue after a select: the close-page probe
        # inlines Channel.bank_ready_by's arithmetic, the open-page one
        # memoizes it per (bank, row) within a pump iteration.
        channel = channels[0]
        chan_filter: int | None = None
        banks = channel.banks
        chan_ready_by = channel.bank_ready_by
        issue = channel.issue
        pump_now = deadline = limit = 0.0
        memo: dict = {}
        if open_page:
            def bank_ready(r: Request) -> bool:
                key = (r.bank, r.row)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = chan_ready_by(r.bank, r.row, pump_now, deadline)
                return hit
        else:
            def bank_ready(r: Request) -> bool:
                ready = banks[r.bank].ready_time
                return (pump_now if pump_now > ready else ready) + act_to_data <= limit

        n_events = 0
        end_guard = end + 1e-9
        clock = self.now
        while heap:
            # the first event past the window end stops the run
            now, prio, _seq, payload = heappop(heap)
            if now > end_guard:
                break
            n_events += 1
            if now < clock - 1e-6:
                raise SimulationError(f"time went backwards: {now} < {clock}")
            if not warmup_done and now >= warmup:
                self._take_warmup_snapshot(warmup)
                warmup_done = True
                phase.end()
                phase = obs.span("engine.measure").begin()
            if now > clock:
                clock = now
            if prio == _P_COMPLETE:
                req = payload
                app_id = req.app_id
                c = counters[app_id]
                c.latency_sum += now - req.created
                c.latency_count += 1
                if req.is_write:
                    c.writes_served += 1
                    resumed = drain_write[app_id](now)
                else:
                    c.reads_served += 1
                    resumed = complete_read[app_id](now)
                if resumed is not None:
                    stalled.remove(app_id)
                    seq += 1
                    heappush(heap, (resumed, _P_MISS, seq, app_id))
            elif prio == _P_MISS:
                # requests arrive pre-decoded (channel/bank/row stamped at
                # creation); instruction counters are refreshed where read
                req, next_access = generate[payload](now)
                enqueue(req, now)
                # wake the channel's pump (it reschedules itself if busy)
                ch = req.channel
                if not pump_scheduled[ch]:
                    pump_scheduled[ch] = True
                    seq += 1
                    heappush(heap, (now, _P_PUMP, seq, ch))
                if next_access is None:
                    stalled.add(payload)
                else:
                    seq += 1
                    heappush(heap, (next_access, _P_MISS, seq, payload))
            elif prio == _P_PUMP:
                pump_scheduled[payload] = False
                if multi_channel:
                    chan_filter = payload
                    channel = channels[payload]
                    banks = channel.banks
                    chan_ready_by = channel.bank_ready_by
                    issue = channel.issue
                pump_now = now
                horizon = now + lookahead + 1e-9
                bus_free = channel.bus_free
                while True:
                    if chan_filter is None:
                        if not scheduler.total_queued:
                            break
                    elif not scheduler.has_pending(chan_filter):
                        break
                    if bus_free > horizon:
                        pump_scheduled[payload] = True
                        seq += 1
                        heappush(heap, (bus_free - lookahead, _P_PUMP, seq, payload))
                        break
                    deadline = now if now > bus_free else bus_free
                    limit = deadline + 1e-9
                    if memo:
                        memo.clear()
                    req = select(now, bank_ready, chan_filter)
                    if req is None:  # pragma: no cover - defensive
                        break
                    # the transfer's end is the channel's new bus_free
                    bus_free = data_end = issue(req, now)
                    # others' queued requests were blocked for the bus
                    # time this request consumed (burst plus any bank
                    # wait); the queues still hold the set select saw
                    span = data_end - deadline
                    rid = req.app_id
                    if chan_filter is not None:
                        for a in scheduler.pending_apps(chan_filter):
                            if a != rid and (not stall_gated or a in stalled):
                                interf[a] += span
                    elif stall_gated:
                        for a in stalled:
                            if a != rid and queues[a]:
                                interf[a] += span
                    else:
                        for a, q in enumerate(queues):
                            if q and a != rid:
                                interf[a] += span
                    seq += 1
                    heappush(heap, (data_end + mc_cycles, _P_COMPLETE, seq, req))
            elif prio == _P_EPOCH:
                self._seq = seq
                self._handle_epoch(now)
                seq = self._seq
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event priority {prio}")

        phase.end()
        self._seq = seq
        self.now = clock
        self._n_events = n_events
        if not warmup_done:
            raise SimulationError("simulation ended before the warmup boundary")
        return self._finalize(end)

    def _take_warmup_snapshot(self, now: float) -> None:
        interf = self._interf
        for i, core in enumerate(self.cores):
            self.counters[i].instructions = core.instructions_at(now)
            self.counters[i].interference_cycles = interf[i]
        self._warmup_snapshot = [c.snapshot() for c in self.counters]
        self._warmup_bus_busy = sum(
            ch.bus_busy_cycles for ch in self.dram.channels
        )

    def _finalize(self, end: float) -> SimResult:
        assert self._warmup_snapshot is not None
        window = self.config.measure_cycles
        apps = []
        for i, core in enumerate(self.cores):
            self.counters[i].instructions = core.instructions_at(end)
            self.counters[i].interference_cycles = self._interf[i]
            delta = self.counters[i].minus(self._warmup_snapshot[i])
            accesses = delta.reads_served + delta.writes_served
            mean_lat = (
                delta.latency_sum / delta.latency_count if delta.latency_count else 0.0
            )
            # close the final profiling epoch implicitly over the window
            t_alone = max(window - delta.interference_cycles, 1.0)
            est = min(accesses / t_alone, self.config.dram.peak_apc)
            apps.append(
                AppWindowResult(
                    name=self.specs[i].name,
                    instructions=delta.instructions,
                    accesses=accesses,
                    reads=delta.reads_served,
                    writes=delta.writes_served,
                    window_cycles=window,
                    mean_latency=mean_lat,
                    interference_cycles=delta.interference_cycles,
                    apc_alone_est=est,
                )
            )
        bus_busy = (
            sum(ch.bus_busy_cycles for ch in self.dram.channels)
            - self._warmup_bus_busy
        )
        n_ch = self.config.dram.n_channels
        reg = obs.registry()
        reg.counter("engine.runs").inc()
        reg.counter("engine.events").inc(self._n_events)
        reg.counter("engine.epochs").inc(self._n_epochs)
        reg.counter("engine.simulated_cycles").inc(window)
        return SimResult(
            apps=tuple(apps),
            window_cycles=window,
            bus_utilization=min(1.0, bus_busy / (window * n_ch)),
            row_hit_rate=self.dram.row_hit_rate(),
            scheduler_name=self.scheduler.name,
            dram_name=self.config.dram.name,
            seed=self.config.seed,
            warmup_cycles=self.config.warmup_cycles,
        )


# ----------------------------------------------------------------------
# convenience entry points
# ----------------------------------------------------------------------
def simulate(
    specs: Sequence[CoreSpec],
    scheduler_factory: Callable[[int], Scheduler],
    config: SimConfig | None = None,
    *,
    repartition_hook: RepartitionHook | None = None,
) -> SimResult:
    """Run one multi-core simulation and return its measurements."""
    cfg = config or SimConfig()
    scheduler = scheduler_factory(len(specs))
    engine = Engine(specs, scheduler, cfg, repartition_hook=repartition_hook)
    return engine.run()


def run_alone(
    spec: CoreSpec,
    config: SimConfig | None = None,
) -> AppWindowResult:
    """Standalone run of one application (measures ``APC_alone``)."""
    cfg = config or SimConfig()
    result = simulate([spec], lambda n: FCFSScheduler(n), cfg)
    return result.apps[0]
