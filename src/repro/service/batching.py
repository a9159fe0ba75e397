"""Micro-batching: coalesce concurrent solves into one vectorized pass.

The load decides the batch size; there is no timer.  The collector
takes the first queued request, drains whatever else is already
queued (up to ``max_batch_size``), yields to the event loop once so
that handlers made runnable in the same turn can submit too, drains
again and solves.  A lone request therefore waits only for that one
loop turn.  Under load batches still grow, because requests pile up in
the queue while the loop is busy parsing and solving the previous
batch.

Each batch is split into compatible groups (same scheme, app count and
flags), whose arrays are stacked into ``(batch, n_apps)`` matrices and
solved by one :mod:`repro.core.batch` kernel per group.  An analytic
group of at most ``ROW_KERNEL_MAX`` numbers skips the stack: each
request goes from its parsed tuples through the float row kernel.  Each
waiter's future resolves to its own row, which is bit-identical to what
the scalar solver would have produced (see ``repro/core/batch.py``), so
batch composition never changes an answer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.batch import ROW_KERNEL_MAX, batch_allocate, batch_qos_plan, row_allocate
from repro.service.protocol import PartitionRequest, QoSRequest
from repro.util.errors import ConfigurationError

__all__ = ["MicroBatcher", "solve_partition_rows", "solve_qos_rows"]


def solve_partition_rows(
    requests: list[PartitionRequest], surrogate=None
) -> list[np.ndarray]:
    """Solve a group of compatible partition requests in one pass.

    The group is homogeneous by construction (``profile`` is part of
    ``group_key``): either every request wants the Eq. 2 closed form
    (``batch_allocate``) or every request wants the fitted response
    surface, in which case ``surrogate`` is the loaded
    :class:`~repro.surrogate.artifact.SurrogateModel` and one
    vectorized ``predict`` answers the whole stack.  Sim-profile
    requests never reach this path -- the server routes them around
    the batcher to the per-request simulation.  A small analytic group
    solves each request from its tuples on the float row kernel.
    """
    first = requests[0]
    if first.profile != "surrogate" and len(requests) * first.n_apps <= ROW_KERNEL_MAX:
        return [
            np.array(
                row_allocate(
                    r.scheme,
                    r.apc_alone,
                    r.bandwidth,
                    api=r.api,
                    work_conserving=r.work_conserving,
                )
            )
            for r in requests
        ]
    apc_alone = np.array([r.apc_alone for r in requests], dtype=float)
    bandwidth = np.array([r.bandwidth for r in requests], dtype=float)
    api = None
    if first.scheme == "prio_api":
        api = np.array([r.api for r in requests], dtype=float)
    if first.profile == "surrogate":
        if surrogate is None:
            raise ConfigurationError(
                "surrogate-profile group reached the solver without a "
                "loaded model (the fallback decision happens upstream)"
            )
        alloc = surrogate.predict(
            first.scheme,
            apc_alone,
            bandwidth,
            api=api,
            work_conserving=first.work_conserving,
        )
    else:
        alloc = batch_allocate(
            first.scheme,
            apc_alone,
            bandwidth,
            api=api,
            work_conserving=first.work_conserving,
        )
    return [alloc[i] for i in range(len(requests))]


def solve_qos_rows(requests: list[QoSRequest]) -> list[dict]:
    """Solve a group of compatible QoS requests in one pass."""
    first = requests[0]
    plan = batch_qos_plan(
        np.array([r.apc_alone for r in requests], dtype=float),
        np.array([r.api for r in requests], dtype=float),
        np.array([r.ipc_targets for r in requests], dtype=float),
        np.array([r.bandwidth for r in requests], dtype=float),
        objective=first.objective,
    )
    return [
        {
            "apc_shared": plan["apc_shared"][i],
            "b_qos": plan["b_qos"][i],
            "b_best_effort": plan["b_best_effort"][i],
            "feasible": bool(plan["feasible"][i]),
            "qos_mask": plan["qos_mask"][i],
        }
        for i in range(len(requests))
    ]


@dataclass
class _Pending:
    request: PartitionRequest | QoSRequest
    future: asyncio.Future = field(repr=False)
    #: submitter's open span (the request's queue-wait), so the solve
    #: span can parent under it even though the collector is a
    #: different asyncio task with its own context
    span_id: int | None = None


def _drain(queue: asyncio.Queue[_Pending], batch: list[_Pending],
           limit: int) -> None:
    """Move queued requests into ``batch`` until it holds ``limit``."""
    while len(batch) < limit and not queue.empty():
        batch.append(queue.get_nowait())


def _fail_shutdown(pendings: list[_Pending]) -> None:
    for pending in pendings:
        if not pending.future.done():
            pending.future.set_exception(ConnectionError("service shutting down"))


class MicroBatcher:
    """Queue + collector task turning concurrent submits into batches."""

    def __init__(
        self,
        *,
        max_batch_size: int = 64,
        on_batch=None,
        partition_solver=None,
    ) -> None:
        self.max_batch_size = max_batch_size
        self._on_batch = on_batch
        #: ``(requests) -> rows`` for partition groups; the server
        #: installs a bound solver that times the call and supplies the
        #: surrogate model for surrogate-profile groups
        self._partition_solver = (
            partition_solver if partition_solver is not None
            else solve_partition_rows
        )
        self._queue: asyncio.Queue[_Pending] | None = None
        self._task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        self._task = asyncio.create_task(self._collect(), name="micro-batcher")

    async def stop(self) -> None:
        """Cancel the collector and fail any requests still queued."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        queue, self._queue = self._queue, None
        if queue is not None:
            _fail_shutdown([queue.get_nowait() for _ in range(queue.qsize())])

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    # ------------------------------------------------------------------
    async def submit(self, request: PartitionRequest | QoSRequest):
        """Enqueue one request; resolves to its row of the batch solve."""
        if self._queue is None:
            raise RuntimeError("MicroBatcher is not running (call start())")
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(
            _Pending(request, future, span_id=obs.current_span_id())
        )
        return await future

    # ------------------------------------------------------------------
    async def _collect(self) -> None:
        queue, limit = self._queue, self.max_batch_size
        assert queue is not None
        while True:
            batch = [await queue.get()]
            _drain(queue, batch, limit)
            if len(batch) < limit:
                # one loop turn: handlers made runnable alongside the
                # first submit enqueue now instead of in the next batch
                try:
                    await asyncio.sleep(0)
                except asyncio.CancelledError:
                    _fail_shutdown(batch)  # already off the queue
                    raise
                _drain(queue, batch, limit)
            self._solve_batch(batch)

    def _solve_batch(self, batch: list[_Pending]) -> None:
        # Drop waiters that gave up (per-request timeout, lost client).
        live = [p for p in batch if not p.future.done()]
        if self._on_batch is not None and live:
            self._on_batch(len(live))
        groups: dict[tuple, list[_Pending]] = {}
        for pending in live:
            groups.setdefault(pending.request.group_key, []).append(pending)
        for key, members in groups.items():
            requests = [p.request for p in members]
            try:
                with obs.span(
                    "service.solve",
                    attrs={"kind": key[0], "batch": len(members), "batched": True},
                    parent_id=members[0].span_id,
                ):
                    if key[0] == "partition":
                        rows = self._partition_solver(requests)
                    else:
                        rows = solve_qos_rows(requests)
            except Exception as exc:  # surface to every waiter, keep serving
                for p in members:
                    if not p.future.done():
                        p.future.set_exception(exc)
                continue
            for p, row in zip(members, rows):
                if not p.future.done():
                    p.future.set_result((row, len(members)))
