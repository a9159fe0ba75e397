"""Span-based tracing: where did this run's wall-clock actually go?

A *span* is one named, timed phase (``engine.measure``,
``service.solve``, ...).  Spans nest: the innermost open span is
tracked in a :mod:`contextvars` context variable, so

* plain nested ``with`` blocks chain parent ids on one thread,
* ``asyncio`` tasks inherit the span that was open when the task was
  created (task creation copies the context),
* thread-pool work keeps its submitter's span when wrapped with
  :func:`carry_context` (threads do *not* inherit context
  automatically),
* process-pool work ships ``current_span_id()`` explicitly and the
  worker's finished spans travel back as picklable records (see
  :meth:`Tracer.drain` / :meth:`Tracer.ingest`); span ids embed the
  pid, so merged timelines cannot collide.

Completed spans land in a process-wide bounded ring buffer
(:class:`Tracer`) costing one lock + a few column writes per span --
spans mark *phases*, never per-event work, so the rate is low by
design.  The ring stores spans column-wise and builds
:class:`SpanRecord` objects only when it is read: a full default ring
of 65,536 service spans costs about 17 MB, where a list of records
would cost about 30 MB.

The fast path: ``REPRO_OBS=off`` (or ``configure(enabled=False)``)
makes ``span(...)`` record nothing -- one attribute read per enter.
``REPRO_OBS_SAMPLE=1/N`` keeps every N-th span instead (counter
stride: deterministic, no RNG on the hot path).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from array import array
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "carry_context",
    "current_span_id",
]

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_OBS", "on").strip().lower()
    return value not in ("off", "0", "false", "no")


def _env_sample_stride() -> int:
    raw = os.environ.get("REPRO_OBS_SAMPLE", "").strip()
    if not raw:
        return 1
    try:
        if "/" in raw:  # "1/16" form
            num, den = raw.split("/", 1)
            rate = float(num) / float(den)
        else:
            rate = float(raw)
    except (ValueError, ZeroDivisionError):
        return 1
    if rate <= 0:
        return 1
    return max(1, round(1.0 / min(rate, 1.0)))


def _env_ring() -> int:
    raw = os.environ.get("REPRO_OBS_RING", "").strip()
    try:
        return max(1, int(raw)) if raw else 65536
    except ValueError:
        return 65536


class _ObsState:
    """Mutable runtime switches (module-global, fork-inherited)."""

    __slots__ = ("enabled", "stride", "tick")

    def __init__(self) -> None:
        self.reload_env()

    def reload_env(self) -> None:
        self.enabled = _env_enabled()
        self.stride = _env_sample_stride()
        self.tick = itertools.count()

    def sampled(self) -> bool:
        stride = self.stride
        return stride <= 1 or next(self.tick) % stride == 0


STATE = _ObsState()

# span ids embed the pid (rebased after fork) so records merged from
# process-pool workers can never collide with the parent's ids
_ids: itertools.count | None = None
_ids_pid: int | None = None


def _next_id() -> int:
    global _ids, _ids_pid
    pid = os.getpid()
    if _ids_pid != pid:
        _ids = itertools.count(((pid & 0xFFFFFF) << 32) | 1)
        _ids_pid = pid
    return next(_ids)  # type: ignore[arg-type]


def current_span_id() -> int | None:
    """Id of the innermost open span in this context (None outside)."""
    return _CURRENT.get()


def carry_context(fn):
    """Bind the *current* context to ``fn`` for thread-pool submission.

    ``executor.submit(carry_context(work), ...)`` makes spans opened in
    the worker thread children of the span open at submission time.
    """
    ctx = contextvars.copy_context()

    @functools.wraps(fn)
    def bound(*args, **kwargs):
        return ctx.run(fn, *args, **kwargs)

    return bound


@dataclass(slots=True)
class SpanRecord:
    """One completed span (picklable; plain fields only)."""

    name: str
    span_id: int
    parent_id: int | None
    ts_us: float  # perf_counter-based start, microseconds
    dur_us: float  # wall duration, microseconds
    cpu_us: float  # thread CPU time consumed inside the span
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Bounded ring buffer of completed spans, stored column-wise.

    Ids, times and pid/tid sit in typed ``array`` columns (8 bytes a
    field instead of a boxed int or float each), names and attrs in
    plain lists; a parent id of 0 stands for ``None`` (span ids are
    never 0).  :class:`SpanRecord` objects are built only on reads.
    Once the ring is full, slot ``_head`` holds the oldest span and is
    the next one overwritten.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity if capacity is not None else _env_ring()
        self._lock = threading.Lock()
        self._reset()
        self.dropped = 0

    def _reset(self) -> None:
        self._names: list[str] = []
        self._attrs: list[dict | None] = []
        self._ids = array("q")
        self._parents = array("q")
        self._ts = array("d")
        self._dur = array("d")
        self._cpu = array("d")
        self._pids = array("q")
        self._tids = array("Q")
        self._head = 0

    def _append(self, name, span_id, parent_id, ts_us, dur_us, cpu_us,
                pid, tid, attrs) -> None:
        parent_id = parent_id or 0
        with self._lock:
            if len(self._names) < self.capacity:
                self._names.append(name)
                self._attrs.append(attrs)
                self._ids.append(span_id)
                self._parents.append(parent_id)
                self._ts.append(ts_us)
                self._dur.append(dur_us)
                self._cpu.append(cpu_us)
                self._pids.append(pid)
                self._tids.append(tid)
                return
            i = self._head
            self._names[i] = name
            self._attrs[i] = attrs
            self._ids[i] = span_id
            self._parents[i] = parent_id
            self._ts[i] = ts_us
            self._dur[i] = dur_us
            self._cpu[i] = cpu_us
            self._pids[i] = pid
            self._tids[i] = tid
            self._head = (i + 1) % self.capacity
            self.dropped += 1

    def record(self, rec: SpanRecord) -> None:
        self._append(rec.name, rec.span_id, rec.parent_id, rec.ts_us,
                     rec.dur_us, rec.cpu_us, rec.pid, rec.tid,
                     rec.attrs or None)

    def _records(self) -> list[SpanRecord]:
        """The ring's spans as records, oldest first."""
        head = self._head  # 0 until the ring is full
        columns = (self._names, self._ids, self._parents, self._ts,
                   self._dur, self._cpu, self._pids, self._tids, self._attrs)
        rows = zip(*(col[head:] + col[:head] for col in columns))
        return [
            SpanRecord(name, sid, parent or None, ts, dur, cpu, pid, tid,
                       attrs or {})
            for name, sid, parent, ts, dur, cpu, pid, tid, attrs in rows
        ]

    def spans(self) -> list[SpanRecord]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return self._records()

    def drain(self) -> list[SpanRecord]:
        """Pop and return everything (how worker processes ship spans)."""
        with self._lock:
            out = self._records()
            self._reset()
            return out

    def ingest(self, records) -> None:
        """Merge records produced elsewhere (e.g. a pool worker)."""
        for rec in records:
            self.record(rec)

    def clear(self) -> None:
        with self._lock:
            self._reset()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._names)

    def find(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans() if s.name == name]


#: the process-wide tracer all spans record into
TRACER = Tracer()


class span:
    """Measure one named phase; context manager *and* decorator.

    As a context manager::

        with span("solve", attrs={"scheme": "sqrt"}):
            ...

    As a decorator (enablement checked per call, not at import)::

        @span("solve")
        def solve(...): ...

    For phases that do not nest lexically (e.g. the engine's
    warmup->measure boundary inside one loop), ``begin()``/``end()``
    expose the same lifecycle imperatively.

    ``parent_id`` overrides the contextvar-derived parent -- the
    cross-task/cross-process handoff (a micro-batcher solving on behalf
    of a waiting request, a pool worker continuing its submitter's
    phase).
    """

    __slots__ = ("name", "attrs", "parent_id", "_live", "_sid", "_parent",
                 "_token", "_t0", "_c0")

    def __init__(self, name: str, attrs: dict | None = None,
                 *, parent_id: int | None = None) -> None:
        self.name = name
        self.attrs = attrs
        self.parent_id = parent_id
        self._live = False

    # -- context-manager lifecycle -------------------------------------
    def __enter__(self) -> "span":
        state = STATE
        if not state.enabled or not state.sampled():
            return self
        self._sid = _next_id()
        self._parent = (
            self.parent_id if self.parent_id is not None else _CURRENT.get()
        )
        self._token = _CURRENT.set(self._sid)
        self._live = True
        self._c0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._live:
            return
        t1 = time.perf_counter()
        c1 = time.thread_time()
        self._live = False
        _CURRENT.reset(self._token)
        # copied: a decorator reuses one attrs dict for every call
        attrs = dict(self.attrs) if self.attrs else None
        if exc_type is not None:
            attrs = {**(attrs or {}), "error": exc_type.__name__}
        TRACER._append(
            self.name, self._sid, self._parent, self._t0 * 1e6,
            (t1 - self._t0) * 1e6, (c1 - self._c0) * 1e6,
            os.getpid(), threading.get_ident(), attrs,
        )

    # -- imperative lifecycle ------------------------------------------
    def begin(self) -> "span":
        return self.__enter__()

    def end(self) -> None:
        self.__exit__(None, None, None)

    @property
    def span_id(self) -> int | None:
        """Id while open (None when disabled/sampled out or closed)."""
        return self._sid if self._live else None

    # -- decorator form ------------------------------------------------
    def __call__(self, fn):
        name, attrs = self.name, self.attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name, attrs):
                return fn(*args, **kwargs)

        return wrapper
