"""Limit-based core model (replaces GEM5's out-of-order cores).

Each core is a closed-loop traffic source characterized by:

* ``ipc_peak`` -- retirement rate while no memory structure is full
  (the compute ceiling set by fetch width / ILP);
* ``api`` -- off-chip accesses per instruction, the model's invariant
  (Eq. 1): inter-access gaps are exponential with mean ``1/api``
  instructions;
* ``mlp`` -- maximum outstanding read misses (ROB/MSHR limit): when the
  limit is hit the core stalls fully until a read returns;
* a bounded posted-write queue: writebacks don't stall retirement until
  ``write_queue_cap`` of them are in flight.

This abstraction preserves exactly what the paper's analytical model
depends on -- each app's (API, APC_alone) operating point, its
memory-boundedness, and the IPC = APC/API coupling -- while being cheap
enough to simulate millions of cycles in Python (DESIGN.md Sec. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.request import Request
from repro.util.errors import SimulationError
from repro.util.rng import RngStream
from repro.util.validation import check_positive, check_probability
from repro.sim.stream import _UNIT, MissAddressStream, StreamSpec

__all__ = ["CorePhase", "CoreSpec", "CoreSim"]


@dataclass(frozen=True)
class CorePhase:
    """A behaviour phase: from ``start_cycle`` on, the application runs
    with these (api, ipc_peak) parameters.

    Phases model the paper's "when an application's behavior changes,
    its APC_alone will be updated correspondingly" (Sec. IV-C): the
    online profiler + :class:`repro.control.EpochController` must
    track these transitions.
    """

    start_cycle: float
    api: float
    ipc_peak: float

    def __post_init__(self) -> None:
        if self.start_cycle < 0:
            raise SimulationError("phase start_cycle must be >= 0")
        check_positive("phase api", self.api)
        check_positive("phase ipc_peak", self.ipc_peak)


@dataclass(frozen=True)
class CoreSpec:
    """Static parameters of one core + its application surrogate.

    ``api``/``ipc_peak`` are the phase-0 behaviour; optional ``phases``
    switch them at given cycles (each phase applies from its
    ``start_cycle`` until the next phase's).
    """

    name: str
    api: float
    ipc_peak: float
    mlp: int
    write_fraction: float = 0.0
    write_queue_cap: int = 16
    stream: StreamSpec = field(default_factory=StreamSpec)
    phases: tuple[CorePhase, ...] = ()

    def __post_init__(self) -> None:
        check_positive(f"api ({self.name})", self.api)
        check_positive(f"ipc_peak ({self.name})", self.ipc_peak)
        check_positive(f"mlp ({self.name})", self.mlp)
        check_probability(f"write_fraction ({self.name})", self.write_fraction)
        check_positive(f"write_queue_cap ({self.name})", self.write_queue_cap)
        starts = [p.start_cycle for p in self.phases]
        if starts != sorted(starts):
            raise SimulationError(
                f"phases of {self.name!r} must be sorted by start_cycle"
            )

    @property
    def demand_apc(self) -> float:
        """Phase-0 access rate if the core never stalled: ``api * ipc_peak``."""
        return self.api * self.ipc_peak

    def params_at(self, now: float) -> tuple[float, float]:
        """(api, ipc_peak) in effect at cycle ``now``."""
        api, ipc = self.api, self.ipc_peak
        for phase in self.phases:
            if now >= phase.start_cycle:
                api, ipc = phase.api, phase.ipc_peak
            else:
                break
        return api, ipc


class CoreSim:
    """Dynamic state of one core during a simulation run."""

    __slots__ = (
        "core_id",
        "spec",
        "addresses",
        "_next_access",
        "rng",
        "_g",
        "_raw",
        "_wf",
        "_mlp",
        "_wq_cap",
        "_phased",
        "_inv_api",
        "_ipc_peak",
        "outstanding_reads",
        "pending_writes",
        "running",
        "_instr",
        "_gap_start",
        "_gap_cycles",
        "_gap_instr",
        "n_reads",
        "n_writes",
        "stall_cycles",
        "_stall_start",
    )

    def __init__(
        self,
        core_id: int,
        spec: CoreSpec,
        address_stream: MissAddressStream,
        rng: RngStream,
    ) -> None:
        self.core_id = core_id
        self.spec = spec
        self.addresses = address_stream
        self._next_access = address_stream.next_access
        self.rng = rng
        # hot-path bindings: the RngStream wrapper and dataclass lookups
        # cost more than the draws themselves at ~1 access / 20 cycles
        self._g = rng.generator
        self._raw = rng.generator.bit_generator.random_raw
        self._wf = spec.write_fraction
        self._mlp = spec.mlp
        self._wq_cap = spec.write_queue_cap
        self._phased = bool(spec.phases)
        self._inv_api = 1.0 / spec.api
        self._ipc_peak = spec.ipc_peak

        self.outstanding_reads = 0
        self.pending_writes = 0
        self.running = False
        #: cumulative instructions retired at the last state change
        self._instr = 0.0
        #: instructions/cycles of the gap currently being executed
        self._gap_start = 0.0
        self._gap_cycles = 0.0
        self._gap_instr = 0.0
        # counters
        self.n_reads = 0
        self.n_writes = 0
        self.stall_cycles = 0.0
        self._stall_start = 0.0

    # ------------------------------------------------------------------
    # instruction accounting
    # ------------------------------------------------------------------
    def instructions_at(self, now: float) -> float:
        """Instructions retired by cycle ``now`` (fractional gaps included)."""
        if not self.running or self._gap_cycles <= 0:
            return self._instr
        frac = min(1.0, max(0.0, (now - self._gap_start) / self._gap_cycles))
        return self._instr + frac * self._gap_instr

    # ------------------------------------------------------------------
    # event interface (driven by the engine)
    # ------------------------------------------------------------------
    def start(self, now: float) -> float:
        """Begin executing; returns the cycle of the first access."""
        self.running = True
        return self._begin_gap(now)

    def _begin_gap(self, now: float) -> float:
        """Draw the next inter-access gap; returns the access cycle.

        Gap draws interleave with the read/write coin flips on one bit
        stream, so they stay scalar in original order (batching would
        reorder bit consumption and change every downstream timestamp);
        the per-draw overhead is trimmed instead by binding the raw
        generator and precomputing ``1/api`` for the phase-less case.
        The coin is one raw word as ``(w >> 11) * 2**-53``: exactly what
        ``Generator.random()`` computes, without the Generator call.
        """
        if self._phased:
            api, ipc_peak = self.spec.params_at(now)
            inv_api = 1.0 / api
        else:
            inv_api, ipc_peak = self._inv_api, self._ipc_peak
        gap_instr = self._g.exponential(inv_api)
        self._gap_instr = gap_instr
        self._gap_cycles = gap_instr / ipc_peak
        self._gap_start = now
        return now + self._gap_cycles

    def generate_access(self, now: float) -> tuple[Request, float | None]:
        """The scheduled access fires: emit a request.

        Returns ``(request, next_access_cycle_or_None)``; ``None`` means
        the core stalled (MLP or write-queue full) and the engine should
        wait for a completion to resume it.
        """
        if not self.running:
            raise SimulationError(f"core {self.core_id} generated access while stalled")
        # the gap that just finished retires its instructions in full
        # (the next gap, drawn below or at resume, overwrites the gap
        # fields; a stalled core's instructions_at reads only _instr)
        self._instr += self._gap_instr

        is_write = (self._raw() >> 11) * _UNIT < self._wf
        # the stream hands back decoded coordinates alongside the
        # address, so the controller never pays a decode round-trip
        addr, channel, bank, row = self._next_access()
        req = Request(self.core_id, addr, is_write, now, channel, bank, row)
        if is_write:
            self.pending_writes += 1
            self.n_writes += 1
        else:
            self.outstanding_reads += 1
            self.n_reads += 1

        if self.outstanding_reads < self._mlp and self.pending_writes < self._wq_cap:
            return req, self._begin_gap(now)
        self.running = False
        self._stall_start = now
        return req, None

    def complete_read(self, now: float) -> float | None:
        """A read returned; resume if this clears the stall.

        Returns the next access cycle if the core (re)starts, else None.
        """
        reads = self.outstanding_reads - 1
        if reads < 0:
            raise SimulationError(f"core {self.core_id}: read underflow")
        self.outstanding_reads = reads
        # resume only a stalled core whose MLP and write queue have room
        if (
            self.running
            or reads >= self._mlp
            or self.pending_writes >= self._wq_cap
        ):
            return None
        self.stall_cycles += now - self._stall_start
        self.running = True
        return self._begin_gap(now)

    def drain_write(self, now: float) -> float | None:
        """A posted write drained; resume if this clears the stall."""
        writes = self.pending_writes - 1
        if writes < 0:
            raise SimulationError(f"core {self.core_id}: write underflow")
        self.pending_writes = writes
        if (
            self.running
            or self.outstanding_reads >= self._mlp
            or writes >= self._wq_cap
        ):
            return None
        self.stall_cycles += now - self._stall_start
        self.running = True
        return self._begin_gap(now)

    @property
    def is_memory_stalled(self) -> bool:
        return not self.running

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoreSim(id={self.core_id}, app={self.spec.name!r}, "
            f"out={self.outstanding_reads}, wq={self.pending_writes}, "
            f"running={self.running})"
        )
