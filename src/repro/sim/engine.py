"""The cycle-level simulation engine (cores -> controller -> DRAM).

Event-driven rather than tick-driven: with the paper's DDR2-400 system,
one 64 B line occupies the data bus for 100 CPU cycles, so the event
count is ~3 per memory access (its MISS, the PUMP that issues it and
its COMPLETE) and a multi-million-cycle window costs only tens of
thousands of heap operations -- the guide-recommended "algorithmic
optimization before micro-optimization".

Event kinds (priority-ordered at equal timestamps):

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
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

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

        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()
        self._pump_scheduled = [False] * config.dram.n_channels
        # pump-loop constants (invariant across the whole run)
        dram_cfg = config.dram
        self._lookahead = dram_cfg.trcd_cycles + dram_cfg.cl_cycles
        if dram_cfg.page_policy == "open":
            self._lookahead += dram_cfg.trp_cycles
        self._open_page = dram_cfg.page_policy == "open"
        self._act_to_data = dram_cfg.trcd_cycles + dram_cfg.cl_cycles
        self._multi_channel = dram_cfg.n_channels > 1
        self._stall_gated = config.interference_mode == "stalled"
        self._mc_cycles = dram_cfg.mc_cycles
        # Hot-path mirrors of per-app state, kept as plain lists: the
        # interference loop below touches every app on every data burst,
        # and list indexing beats attribute chains there.  ``_running``
        # shadows ``CoreSim.running``; ``_interf`` is the sole
        # interference accumulator, folded into ``AppCounters`` at the
        # points that read them (epoch, warmup snapshot, finalize).
        self._running = [False] * len(self.specs)
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
        heapq.heappush(self._heap, (time, prio, next(self._seq), payload))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _handle_miss(self, core_id: int, now: float) -> None:
        req, next_access = self.cores[core_id].generate_access(now)
        # requests arrive pre-decoded: the address stream stamps
        # channel/bank/row at creation (it owns the same AddressMapper
        # layout), so no decode round-trip here.  Instruction counters
        # are refreshed lazily at the points that read them (epoch,
        # warmup snapshot, finalize), not per miss.
        self.scheduler.enqueue(req, now)
        # wake the channel's pump; it reschedules itself to the right
        # slot if the bus is busy
        channel = req.channel
        if not self._pump_scheduled[channel]:
            self._pump_scheduled[channel] = True
            heapq.heappush(self._heap, (now, _P_PUMP, next(self._seq), channel))
        if next_access is not None:
            heapq.heappush(
                self._heap, (next_access, _P_MISS, next(self._seq), core_id)
            )
        else:
            self._running[core_id] = False

    def _handle_pump(self, now: float, channel_index: int) -> None:
        """Issue requests on one channel while its bus schedule has room.

        Command pipelining: the controller commits the next request up to
        ``tRCD + CL`` cycles before the bus frees, so its activate
        overlaps the in-flight data transfer and bursts land back-to-back
        (otherwise every access would pay the activate latency on the bus
        critical path and the peak 1-line-per-burst rate would be
        unreachable).

        With multiple channels each channel is pumped independently;
        scheduler *policy* state (tags, priorities, age order) stays
        global, only the candidate set is channel-filtered.
        """
        self._pump_scheduled[channel_index] = False
        scheduler = self.scheduler
        select = scheduler.select
        queues = scheduler.queues
        running = self._running
        interf = self._interf
        heap = self._heap
        seq = self._seq
        mc_cycles = self._mc_cycles
        stall_gated = self._stall_gated
        chan_filter = channel_index if self._multi_channel else None
        channel = self.dram.channels[channel_index]
        # open-page conflicts pay precharge+activate before CAS, so the
        # controller must commit further ahead to keep the bus gapless
        lookahead = self._lookahead
        horizon = now + lookahead + 1e-9
        # The readiness probe -- would the bank deliver the moment the
        # bus frees? -- is built once per call and reads each
        # iteration's ``deadline``/``limit`` from this frame.  Bank state
        # is frozen until the issue below, so a select may probe
        # ~queue-depth requests but only ~bank-count answers exist:
        # close-page timing is row-independent and cheap enough to
        # recompute inline; the open-page answer is memoized per
        # (bank, row) within an iteration.
        deadline = limit = now
        memo: dict = {}
        if self._open_page:
            chan_bank_ready = channel.bank_ready_by

            def bank_ready(r: Request) -> bool:
                key = (r.bank, r.row)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = chan_bank_ready(
                        r.bank, r.row, now, deadline
                    )
                return hit

        else:
            banks = channel.banks
            act_to_data = self._act_to_data

            def bank_ready(r: Request) -> bool:
                # Channel.bank_ready_by's close-page case, inlined
                ready = banks[r.bank].ready_time
                return (now if now > ready else ready) + act_to_data <= limit

        while True:
            if chan_filter is None:
                if not scheduler.total_queued:
                    return
            elif not scheduler.has_pending(chan_filter):
                return
            bus_free = channel.bus_free
            if bus_free > horizon:
                self._pump_scheduled[channel_index] = True
                heapq.heappush(
                    heap, (bus_free - lookahead, _P_PUMP, next(seq), channel_index)
                )
                return
            deadline = now if now > bus_free else bus_free
            limit = deadline + 1e-9
            if memo:
                memo.clear()
            req = select(now, bank_ready, chan_filter)
            if req is None:  # pragma: no cover - defensive
                return
            channel.issue(req, now)
            data_end = channel.bus_free
            req.issued = now
            completed = req.completed = data_end + mc_cycles
            # others' queued requests were blocked for the bus time this
            # request consumed (its burst plus any bank-wait bubble);
            # the issue above only touches DRAM state, so reading the
            # queues after it sees the same pending set select saw
            span = data_end - deadline
            rid = req.app_id
            if chan_filter is None:
                if stall_gated:
                    for a, q in enumerate(queues):
                        if q and a != rid and not running[a]:
                            interf[a] += span
                else:
                    for a, q in enumerate(queues):
                        if q and a != rid:
                            interf[a] += span
            else:
                for a in scheduler.pending_apps(chan_filter):
                    if a != rid and (not stall_gated or not running[a]):
                        interf[a] += span
            heapq.heappush(heap, (completed, _P_COMPLETE, next(seq), req))

    def _handle_complete(self, req: Request, now: float) -> None:
        app_id = req.app_id
        c = self.counters[app_id]
        c.latency_sum += now - req.created
        c.latency_count += 1
        if req.is_write:
            c.writes_served += 1
            resumed = self.cores[app_id].drain_write(now)
        else:
            c.reads_served += 1
            resumed = self.cores[app_id].complete_read(now)
        if resumed is not None:
            self._running[app_id] = True
            heapq.heappush(self._heap, (resumed, _P_MISS, next(self._seq), app_id))

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
        cfg = self.config
        for i, core in enumerate(self.cores):
            first = core.start(0.0)
            self._running[i] = True
            self._push(first, _P_MISS, i)
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

        n_events = 0
        heap = self._heap
        heappop = heapq.heappop
        handle_complete = self._handle_complete
        handle_miss = self._handle_miss
        handle_pump = self._handle_pump
        end_guard = end + 1e-9
        clock = self.now
        while heap:
            # the first event past the window end stops the run
            time, prio, _seq, payload = heappop(heap)
            if time > end_guard:
                break
            n_events += 1
            if time < clock - 1e-6:
                raise SimulationError(f"time went backwards: {time} < {clock}")
            if not warmup_done and time >= warmup:
                self._take_warmup_snapshot(warmup)
                warmup_done = True
                phase.end()
                phase = obs.span("engine.measure").begin()
            if time > clock:
                clock = time
            if prio == _P_COMPLETE:
                handle_complete(payload, time)  # type: ignore[arg-type]
            elif prio == _P_MISS:
                handle_miss(payload, time)  # type: ignore[arg-type]
            elif prio == _P_PUMP:
                handle_pump(time, payload)  # type: ignore[arg-type]
            elif prio == _P_EPOCH:
                self._handle_epoch(time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event priority {prio}")

        phase.end()
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
