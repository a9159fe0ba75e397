"""The advisor service's application layer: routing, solving, caching.

The service is three explicit layers:

* **transport** (:mod:`repro.service.http`) -- HTTP/1.1 framing,
  keep-alive, connection draining; knows nothing about partitioning;
* **application** (this module) -- admission control and deadline
  shedding (:mod:`repro.service.shedding`), routing, the result cache
  (per-process LRU + cross-worker shared segment + optional disk), the
  watch layer, streams;
* **batcher/solver** (:mod:`repro.service.batching`,
  :mod:`repro.core.batch`, :mod:`repro.surrogate`) -- micro-batch
  collection and the vectorized numpy / surrogate / sim kernels.

One process runs one :class:`PartitionService`.  Scale-out runs N of
them behind one port via the pre-fork supervisor
(:mod:`repro.service.supervisor`): each worker is this same asyncio
loop, sharing the result cache through an mmap seqlock table
(:mod:`repro.util.shmcache`) and publishing metrics snapshots for the
cross-worker ``/metrics`` fleet view (:mod:`repro.service.aggregate`).

Endpoints
---------
``GET  /healthz``               liveness + uptime (+ worker id)
``GET  /metrics``               counters snapshot (fleet-merged when multi-worker)
``POST /v1/partition``          one solve (micro-batched when enabled)
``POST /v1/partition/batch``    many solves in one call (always stacked)
``POST /v1/qos``                QoS-guaranteed plan (Sec. III-G)
``POST /v1/surrogate/reload``   re-read the surrogate artifact
``POST /v1/stream/open``        open a long-lived counter stream (429 at cap)
``POST /v1/stream/<id>/counters``  push epoch counter deltas, get shares back
``GET  /v1/stream/<id>``        stream session info
``DELETE /v1/stream/<id>``      close a stream session
``GET  /v1/debug/recent``       flight recorder (?kind=shed&limit=32)
``GET  /v1/debug/slo``          SLO burn-rate evaluation + active alerts
``GET  /v1/debug/drift``        online surrogate drift scores + shadow stats

Overload contract: past ``max_inflight`` admitted requests a worker
sheds with ``429`` + ``Retry-After`` (drain-time hint derived from the
queue depth); a request whose ``X-Deadline-Ms`` budget is already
spent is shed *before* solving with ``504 DeadlineExceeded``.  Both
count as ``sheds`` in ``/metrics``, land in the flight recorder and
feed the availability SLOs.

Every request gets a wall-clock budget (``request_timeout_s``, capped
to the client deadline when one is sent -> 504) and failures map to
structured JSON errors: 400 for malformed input, 422 for infeasible
QoS problems, 413/404/405 for transport-level misuse, 500 for
anything else.  ``stop()`` drains in-flight requests for a grace
period, closes stream sessions, then tears connections down.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import sys
import time

import numpy as np

from repro import __version__, obs
from repro.core.partitioning import scheme_by_name
from repro.core.apps import AppProfile, Workload
from repro.service import aggregate
from repro.service.batching import MicroBatcher, solve_partition_rows, solve_qos_rows
from repro.service.cache import ResultCache, default_disk_cache
from repro.service.config import ServiceConfig
from repro.service.http import HttpTransport, Request, Response
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PartitionRequest,
    error_body,
    parse_counter_push,
    parse_partition_request,
    parse_qos_request,
    parse_stream_open,
    partition_response,
    qos_response,
)
from repro.service.sessions import SessionLimitError, SessionManager
from repro.service.shedding import AdmissionController, Deadline, DeadlineExceeded
from repro.service.surrogate import SurrogateStore
from repro.service.watch import ServiceWatch
from repro.util.cache import config_digest
from repro.util.errors import ConfigurationError, InfeasibleError
from repro.util.shmcache import SharedResultCache

__all__ = ["PartitionService"]


if sys.version_info >= (3, 11):

    async def _within(awaitable, timeout_s: float):
        """Await ``awaitable`` in the calling task, bounded by ``timeout_s``.

        Raises ``asyncio.TimeoutError`` like ``asyncio.wait_for``, but
        without wrapping the handler in a Task of its own.
        """
        async with asyncio.timeout(timeout_s):
            return await awaitable

else:  # asyncio.timeout arrived in 3.11
    _within = asyncio.wait_for


class PartitionService:
    """The advisor service: router, micro-batcher, cache and counters."""

    def __init__(
        self, config: ServiceConfig | None = None, *, shared_lock=None
    ) -> None:
        self.config = config or ServiceConfig()
        self._shared_lock = shared_lock
        self.metrics = ServiceMetrics(latency_window=self.config.latency_window)
        self.cache: ResultCache | None = None
        self._owned_shared: SharedResultCache | None = None
        if self.config.cache:
            disk = default_disk_cache() if self.config.disk_cache else None
            shared = self._resolve_shared_cache()
            self.cache = ResultCache(
                self.config.cache_capacity, disk=disk, shared=shared
            )
        self.surrogate = SurrogateStore(
            self.config.surrogate_dir,
            expected_digest=self.config.surrogate_digest,
            registry=self.metrics.registry,
        )
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            idle_timeout_s=self.config.session_idle_s,
            history_limit=self.config.session_history,
        )
        self.watch = ServiceWatch(self.config, registry=self.metrics.registry)
        self.admission: AdmissionController | None = None
        if self.config.max_inflight > 0:
            self.admission = AdmissionController(self.config.max_inflight)
        self._inflight = 0
        self.metrics.set_build_info(
            version=__version__,
            revision=obs.git_revision() or "unknown",
            config_digest=config_digest(
                "service/config", dataclasses.asdict(self.config)
            )[:16],
        )
        self._shadow_tasks: set[asyncio.Task] = set()
        self.batcher: MicroBatcher | None = None
        if self.config.batching:
            self.batcher = MicroBatcher(
                max_batch_size=self.config.max_batch_size,
                on_batch=self.metrics.observe_batch,
                partition_solver=self._solve_partition_group,
            )
        self.transport = HttpTransport(
            self._dispatch, max_body_bytes=self.config.max_body_bytes
        )
        self._sync_task: asyncio.Task | None = None

    def _resolve_shared_cache(self) -> SharedResultCache | None:
        """Attach the supervisor's segment, or own one when asked to."""
        if self.config.shared_cache_name is not None:
            return SharedResultCache.attach(
                self.config.shared_cache_name, lock=self._shared_lock
            )
        if self.config.shared_cache_enabled and self.config.workers == 1:
            # single-process opt-in (shared_cache=True): own the segment
            self._owned_shared = SharedResultCache.create(
                self.config.shared_cache_slots,
                self.config.shared_cache_value_bytes,
                lock=self._shared_lock,
            )
            return self._owned_shared
        return None

    @property
    def _multi_worker(self) -> bool:
        return (
            self.config.worker_id is not None
            and self.config.runtime_dir is not None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, sock=None) -> None:
        """Bind the listener (port 0 picks a free port) and start batching.

        ``sock`` adopts a pre-bound listening socket instead -- the
        supervisor's socket-handoff path for forked workers.
        """
        if self.batcher is not None:
            await self.batcher.start()
        await self.transport.start(
            self.config.host, self.config.port, sock=sock
        )
        if self._multi_worker:
            self._publish_dump()
            self._sync_task = asyncio.get_running_loop().create_task(
                self._sync_loop(), name="metrics-sync"
            )

    @property
    def port(self) -> int:
        """The bound port (useful when configured with port 0)."""
        return self.transport.port

    async def serve_forever(self) -> None:
        await self.transport.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then tear down."""
        await self.transport.stop(self.config.shutdown_grace_s)
        if self._sync_task is not None:
            self._sync_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sync_task
            self._sync_task = None
        if self._shadow_tasks:
            for task in list(self._shadow_tasks):
                task.cancel()
            await asyncio.gather(*list(self._shadow_tasks), return_exceptions=True)
        if self.batcher is not None:
            await self.batcher.stop()
        # close every live stream session so epoch state is finalized
        # (clients see closed sessions as 404 "expired" -- same as idle
        # eviction, which is the documented stream lifecycle contract)
        for session_id in [s for s in self.sessions.session_ids()]:
            if self.sessions.close(session_id) is not None:
                self.metrics.observe_stream("close")
        if self._multi_worker:
            self._publish_dump()  # final counters survive the exit
        if self.cache is not None:
            self.cache.close()
        if self._owned_shared is not None:
            self._owned_shared.destroy()
            self._owned_shared = None

    # ------------------------------------------------------------------
    # app layer: admission, deadline, timing (called by the transport)
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> Response:
        with obs.span(
            "service.request",
            attrs={"path": request.path, "method": request.method},
        ):
            started = time.perf_counter()
            extra_headers: dict[str, str] = {}
            timed_out = False
            deadline_shed = False
            admitted = False
            if self.admission is not None and not self.admission.try_admit():
                # shed before any parsing: the whole point is to spend
                # ~nothing on work we cannot serve in time
                status = 429
                retry_s = self.admission.retry_after_s()
                payload = error_body(
                    "Overloaded",
                    f"worker at max_inflight={self.admission.max_inflight}; "
                    f"retry in ~{retry_s:.2f}s",
                )
                payload["retry_after_s"] = retry_s
                extra_headers["Retry-After"] = self.admission.retry_after_header()
                self.metrics.registry.counter("service.admission_rejects").inc()
            else:
                admitted = self.admission is not None
                self._inflight += 1
                deadline = Deadline.from_headers(request.headers)
                timeout_s = self.config.request_timeout_s
                if deadline is not None:
                    timeout_s = min(timeout_s, max(0.0, deadline.remaining_s()))
                try:
                    if deadline is not None and deadline.expired():
                        raise DeadlineExceeded(
                            f"deadline of {deadline.budget_ms:g} ms spent "
                            "before admission"
                        )
                    handler = (
                        self.handle(request.method, request.path, request.body)
                        if deadline is None
                        else self.handle(
                            request.method,
                            request.path,
                            request.body,
                            deadline=deadline,
                        )
                    )
                    status, payload = await _within(handler, timeout_s)
                except DeadlineExceeded as exc:
                    deadline_shed = True
                    status, payload = 504, error_body("DeadlineExceeded", str(exc))
                except asyncio.TimeoutError:
                    timed_out = True
                    if deadline is not None and deadline.expired():
                        deadline_shed = True
                        status, payload = 504, error_body(
                            "DeadlineExceeded",
                            f"deadline of {deadline.budget_ms:g} ms passed "
                            "while the request was queued or solving",
                        )
                    else:
                        status, payload = 504, error_body(
                            "Timeout",
                            f"request exceeded {self.config.request_timeout_s}s",
                        )
                finally:
                    self._inflight -= 1
            latency_ms = (time.perf_counter() - started) * 1000.0
            if admitted:
                self.admission.release(latency_ms / 1000.0)
            shed = status == 429 or deadline_shed
            if deadline_shed:
                self.metrics.registry.counter("service.deadline_sheds").inc()
            self.metrics.observe_request(
                request.path,
                latency_ms,
                error=status >= 400,
                timeout=timed_out,
                shed=shed,
            )
            self.watch.observe_request(
                request.path,
                latency_ms,
                status=status,
                error=status >= 400,
                timeout=timed_out,
                shed=shed,
            )
            with obs.span("service.serialize", attrs={"status": status}):
                return Response(status=status, payload=payload, headers=extra_headers)

    # ------------------------------------------------------------------
    # routing (transport-free; exercised directly by unit tests)
    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        path: str,
        body: bytes,
        *,
        deadline: Deadline | None = None,
    ) -> tuple[int, dict]:
        try:
            if path == "/healthz":
                if method != "GET":
                    return _method_not_allowed(method)
                return 200, {
                    "status": "ok",
                    "uptime_s": self.metrics.uptime_s,
                    "batching": self.batcher is not None,
                    "worker_id": self.config.worker_id,
                    "workers": self.config.workers,
                }
            if path == "/metrics":
                if method != "GET":
                    return _method_not_allowed(method)
                return 200, self._metrics_body()
            if path == "/v1/partition":
                if method != "POST":
                    return _method_not_allowed(method)
                return 200, await self._handle_partition(
                    _parse_json(body), deadline=deadline
                )
            if path == "/v1/partition/batch":
                if method != "POST":
                    return _method_not_allowed(method)
                return 200, await self._handle_partition_batch(
                    _parse_json(body), deadline=deadline
                )
            if path == "/v1/qos":
                if method != "POST":
                    return _method_not_allowed(method)
                return 200, await self._handle_qos(
                    _parse_json(body), deadline=deadline
                )
            if path == "/v1/surrogate/reload":
                if method != "POST":
                    return _method_not_allowed(method)
                self.surrogate.reload()
                self.watch.drift.reset()
                return 200, self.surrogate.snapshot()
            if path.startswith("/v1/debug/"):
                if method != "GET":
                    return _method_not_allowed(method)
                return self._handle_debug(path)
            if path == "/v1/stream/open":
                if method != "POST":
                    return _method_not_allowed(method)
                return 200, self._handle_stream_open(_parse_json(body))
            if path.startswith("/v1/stream/"):
                tail = path[len("/v1/stream/"):]
                if tail.endswith("/counters"):
                    session_id = tail[: -len("/counters")]
                    if "/" in session_id or not session_id:
                        return 404, error_body("NotFound", f"no route for {path!r}")
                    if method != "POST":
                        return _method_not_allowed(method)
                    return await self._handle_stream_push(
                        session_id, _parse_json(body)
                    )
                if tail and "/" not in tail:
                    if method == "GET":
                        return self._handle_stream_info(tail)
                    if method == "DELETE":
                        return self._handle_stream_close(tail)
                    return _method_not_allowed(method)
            return 404, error_body("NotFound", f"no route for {path!r}")
        except DeadlineExceeded as exc:
            # shed-before-solve: the client's budget ran out while the
            # request sat in a queue or between pipeline stages
            return 504, error_body("DeadlineExceeded", str(exc))
        except SessionLimitError as exc:
            self.metrics.observe_stream("reject")
            return 429, error_body("SessionLimit", str(exc))
        except ConfigurationError as exc:
            return 400, error_body("ConfigurationError", str(exc))
        except InfeasibleError as exc:
            return 422, error_body("InfeasibleError", str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # reprolint: disable=exc-broad
            # last-resort boundary: the failure is propagated to the
            # client as a structured 500, never swallowed
            return 500, error_body("InternalError", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # /metrics (single-process or fleet-merged)
    # ------------------------------------------------------------------
    def _metrics_body(self) -> dict:
        cache = self.cache.snapshot() if self.cache is not None else None
        body_out = self.metrics.snapshot(
            cache=cache, sessions=self.sessions.snapshot()
        )
        body_out["process"]["worker_id"] = self.config.worker_id
        if self.admission is not None:
            body_out["admission"] = self.admission.snapshot()
        # additive: the unified repro.obs registry (batcher,
        # caches, engine, ... series) -- existing fields above
        # keep their names and shapes
        body_out["obs"] = self.metrics.registry.snapshot()
        body_out["surrogate"] = self.surrogate.snapshot()
        # watch layer: SLO burn-rate alerts, online drift,
        # fleet controller health (all additive sections)
        body_out["alerts"] = self.watch.alerts()
        body_out["slo"] = self.watch.slo_status()
        body_out["drift"] = self.watch.drift_snapshot()
        body_out["controller"] = self.sessions.health_snapshot()
        if self._multi_worker:
            # fleet view: this worker publishes fresh, merges everyone's
            # latest -- counters summed, histograms merged sample-wise,
            # per-worker gauges labelled by worker_id under "workers"
            self._publish_dump()
            cluster = aggregate.merge_worker_dumps(
                aggregate.read_worker_dumps(self.config.runtime_dir)
            )
            body_out["aggregated"] = True
            body_out["endpoints"] = cluster["endpoints"]
            body_out["solvers"] = cluster["solvers"]
            body_out["batching"] = cluster["batching"]
            body_out["speedup_vs_sim"] = cluster["speedup_vs_sim"]
            body_out["workers"] = cluster["workers"]
            body_out["n_workers"] = cluster["n_workers"]
            body_out["cluster"] = {
                "cache": cluster["cache"],
                "admission": cluster["admission"],
                "sessions": cluster["sessions"],
            }
        return body_out

    def _dump_payload(self) -> dict:
        """This worker's mergeable snapshot (see repro.service.aggregate)."""
        cache: dict = {}
        if self.cache is not None:
            cache = {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "puts": self.cache.stats.puts,
                "shared_hits": (
                    self.cache.shared.stats.hits
                    if self.cache.shared is not None
                    else 0
                ),
            }
        admission = (
            self.admission.snapshot()
            if self.admission is not None
            else {"inflight": self._inflight, "admitted": 0, "rejected": 0}
        )
        return {
            "worker_id": self.config.worker_id,
            "pid": os.getpid(),
            "uptime_s": self.metrics.uptime_s,
            "endpoints": {
                path: stats.dump() for path, stats in self.metrics.endpoints.items()
            },
            "solvers": {
                source: stats.dump()
                for source, stats in self.metrics.solvers.items()
            },
            "batching": {
                "batches": self.metrics.batches,
                "batched_requests": self.metrics.batched_requests,
                "max_batch_size": self.metrics.max_batch_size,
            },
            "cache": cache,
            "admission": admission,
            "sessions": {"active": self.sessions.active},
        }

    def _publish_dump(self) -> None:
        aggregate.write_worker_dump(
            self.config.runtime_dir, self.config.worker_id, self._dump_payload()
        )

    async def _sync_loop(self) -> None:
        """Periodically publish this worker's snapshot for the fleet view."""
        while True:
            await asyncio.sleep(self.config.metrics_sync_s)
            self._publish_dump()

    # ------------------------------------------------------------------
    # endpoint handlers
    # ------------------------------------------------------------------
    def _partition_source(self, request: PartitionRequest) -> str:
        """The engine serving this request (surrogate may downgrade).

        A surrogate-profile request downgrades to the sim path when no
        valid artifact can answer -- or, with ``drift_auto_fallback``,
        while the online drift monitor holds the ``degraded`` flag: a
        loadable artifact whose live shadow score breached the MAPE
        gate must not keep answering.
        """
        if request.profile != "surrogate":
            return request.profile
        if self.config.drift_auto_fallback and self.watch.drift.degraded:
            breached = ", ".join(self.watch.drift.breached_schemes())
            source = self.surrogate.force_fallback(
                f"online drift degraded (MAPE over gate for: {breached})"
            )
        else:
            source = self.surrogate.source_for(request)
        if source == "sim":
            self.watch.record_fallback(
                "/v1/partition", self.surrogate.last_fallback_reason
            )
        return source

    # ------------------------------------------------------------------
    # shadow-sampling (drift monitor feed)
    # ------------------------------------------------------------------
    def _maybe_shadow(self, request: PartitionRequest, row) -> None:
        """Maybe queue an async sim re-solve of a surrogate answer.

        Decided by the deterministic stride sampler; the shadow runs
        off the request's latency path (a worker thread via the normal
        sim route) and feeds the drift monitor on completion.
        """
        if not self.watch.sampler.try_acquire():
            return
        task = asyncio.get_running_loop().create_task(
            self._shadow_solve(request, [float(v) for v in row])
        )
        self._shadow_tasks.add(task)
        task.add_done_callback(self._shadow_tasks.discard)

    async def _shadow_solve(
        self, request: PartitionRequest, predicted: list
    ) -> None:
        from repro.surrogate.simpath import simulate_partition_request

        try:
            sim_row = await asyncio.to_thread(
                simulate_partition_request,
                request.scheme,
                request.apc_alone,
                request.bandwidth,
                api=request.api,
                work_conserving=request.work_conserving,
            )
            self.watch.record_shadow(request, predicted, sim_row)
        except asyncio.CancelledError:
            raise
        except Exception:  # reprolint: disable=exc-broad
            # shadows are best-effort quality probes: a failure must
            # never surface into serving, only into this counter
            self.metrics.registry.counter("surrogate.drift.shadow_errors").inc()
        finally:
            self.watch.sampler.release()

    def _score_fallback(self, request: PartitionRequest, sim_row) -> None:
        """Score the model against a sampled fallback's own sim answer.

        Under drift auto-fallback a breached scheme is answered by the
        sim, so it is never shadowed.  The request already computed the
        sim row, so scoring the loaded model's prediction against it
        keeps the scheme's window fresh, and lets it recover, at no
        extra simulation.  Fallbacks with no model to score (no
        artifact, no fit for the scheme) are skipped.
        """
        model, _ = self.surrogate.resolve()
        if model is None or not model.supports(request.scheme):
            return
        if not self.watch.sampler.try_acquire():
            return
        try:
            predicted = solve_partition_rows([request], surrogate=model)[0]
            self.watch.record_shadow(request, predicted, sim_row)
        finally:
            self.watch.sampler.release()

    async def drain_shadows(self) -> None:
        """Wait for every in-flight shadow solve (tests, benchmarks)."""
        while self._shadow_tasks:
            await asyncio.gather(
                *list(self._shadow_tasks), return_exceptions=True
            )

    def _handle_debug(self, path: str) -> tuple[int, dict]:
        """``GET /v1/debug/recent|slo|drift`` (+ simple query params)."""
        tail, _, query = path[len("/v1/debug/"):].partition("?")
        params: dict[str, str] = {}
        for pair in query.split("&"):
            name, sep, value = pair.partition("=")
            if sep and name:
                params[name] = value
        if tail == "recent":
            limit: int | None = None
            if "limit" in params:
                try:
                    limit = int(params["limit"])
                except ValueError:
                    raise ConfigurationError(
                        f"limit must be an integer, got {params['limit']!r}"
                    ) from None
            return 200, self.watch.recorder.snapshot(
                limit=limit, kind=params.get("kind")
            )
        if tail == "slo":
            return 200, {
                "alerts": self.watch.alerts(),
                "slo": self.watch.slo_status(),
            }
        if tail == "drift":
            return 200, self.watch.drift_snapshot()
        return 404, error_body("NotFound", f"no route for {path!r}")

    def _solve_partition_group(self, requests: list[PartitionRequest]):
        """Timed group solve; resolves the model for surrogate groups.

        Runs on the event loop (it is microseconds of numpy either
        way); installed as the micro-batcher's partition solver and
        called directly by the batch endpoint and the naive path.
        """
        source = requests[0].profile
        model = None
        if source == "surrogate":
            model, _ = self.surrogate.resolve()
        started = time.perf_counter()
        rows = solve_partition_rows(requests, surrogate=model)
        solve_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.observe_solve(source, solve_ms)
        self.watch.observe_solve(source, solve_ms)
        return rows

    async def _solve_sim(self, request: PartitionRequest) -> np.ndarray:
        """The bounded-window simulation path, off the event loop."""
        from repro.surrogate.simpath import simulate_partition_request

        started = time.perf_counter()
        with obs.span("service.solve", attrs={"kind": "sim"}):
            row = await asyncio.to_thread(
                simulate_partition_request,
                request.scheme,
                request.apc_alone,
                request.bandwidth,
                api=request.api,
                work_conserving=request.work_conserving,
            )
        solve_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.observe_solve("sim", solve_ms)
        self.watch.observe_solve("sim", solve_ms)
        return row

    async def _handle_partition(
        self, obj, *, deadline: Deadline | None = None
    ) -> dict:
        request = parse_partition_request(obj)
        source = self._partition_source(request)
        key = request.cache_key() if self.cache is not None else None
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return dict(hit, cached=True, batch_size=0)
        if deadline is not None:
            deadline.check("the solve started")  # shed-before-solve
        if source == "sim":
            # per-request simulation: never micro-batched (it would
            # stall the numpy groups behind milliseconds of sim)
            row, batch_size = await self._solve_sim(request), 1
        elif self.batcher is not None:
            with obs.span("service.queue_wait", attrs={"kind": "partition"}):
                row, batch_size = await self.batcher.submit(request)
        else:
            with obs.span("service.solve", attrs={"batched": False}):
                row, batch_size = self._solve_partition_group([request])[0], 1
        if source == "surrogate":
            self._maybe_shadow(request, row)
        elif source == "sim" and request.profile == "surrogate":
            self._score_fallback(request, row)
        response = partition_response(
            request, row, batch_size=batch_size, source=source
        )
        if key is not None:
            self.cache.put(key, _cacheable(response))
        return response

    async def _handle_partition_batch(
        self, obj, *, deadline: Deadline | None = None
    ) -> dict:
        if not isinstance(obj, dict) or "requests" not in obj:
            raise ConfigurationError("body must be {\"requests\": [...]}")
        raw = obj["requests"]
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError("requests must be a non-empty array")
        if len(raw) > self.config.max_requests_per_call:
            raise ConfigurationError(
                f"at most {self.config.max_requests_per_call} requests per "
                f"call, got {len(raw)}"
            )
        requests = [parse_partition_request(o) for o in raw]
        results: list[dict | None] = [None] * len(requests)

        to_solve: list[tuple[int, PartitionRequest, str | None]] = []
        to_sim: list[tuple[int, PartitionRequest, str | None]] = []
        for i, request in enumerate(requests):
            source = self._partition_source(request)
            key = request.cache_key() if self.cache is not None else None
            if key is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = dict(hit, cached=True, batch_size=0)
                    continue
            (to_sim if source == "sim" else to_solve).append((i, request, key))

        if deadline is not None and (to_solve or to_sim):
            deadline.check("the batch solve started")  # shed-before-solve

        # The call itself is already a batch: stack by group directly
        # instead of routing through the collector.  Sim-sourced
        # requests (profile "sim" or surrogate fallbacks) cannot stack;
        # they run as parallel worker threads instead.
        groups: dict[tuple, list[tuple[int, PartitionRequest, str | None]]] = {}
        for entry in to_solve:
            groups.setdefault(entry[1].group_key, []).append(entry)
        for members in groups.values():
            with obs.span(
                "service.solve",
                attrs={"kind": "partition", "batch": len(members),
                       "batched": True},
            ):
                rows = self._solve_partition_group(
                    [request for _, request, _ in members]
                )
            for (i, request, key), row in zip(members, rows):
                if request.profile == "surrogate":
                    self._maybe_shadow(request, row)
                response = partition_response(
                    request, row, batch_size=len(members)
                )
                if key is not None:
                    self.cache.put(key, _cacheable(response))
                results[i] = response
        if to_sim:
            rows = await asyncio.gather(
                *(self._solve_sim(request) for _, request, _ in to_sim)
            )
            for (i, request, key), row in zip(to_sim, rows):
                if request.profile == "surrogate":
                    self._score_fallback(request, row)
                response = partition_response(
                    request, row, batch_size=1, source="sim"
                )
                if key is not None:
                    self.cache.put(key, _cacheable(response))
                results[i] = response
        return {"results": results}

    async def _handle_qos(self, obj, *, deadline: Deadline | None = None) -> dict:
        request = parse_qos_request(obj)
        key = request.cache_key() if self.cache is not None else None
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return dict(hit, cached=True, batch_size=0)
        if deadline is not None:
            deadline.check("the solve started")  # shed-before-solve
        if self.batcher is not None:
            with obs.span("service.queue_wait", attrs={"kind": "qos"}):
                row, batch_size = await self.batcher.submit(request)
        else:
            with obs.span("service.solve", attrs={"batched": False}):
                row, batch_size = solve_qos_rows([request])[0], 1
        response = qos_response(request, row, batch_size=batch_size)
        if key is not None:
            self.cache.put(key, _cacheable(response))
        return response

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def _handle_stream_open(self, obj) -> dict:
        req = parse_stream_open(obj)
        session = self.sessions.open(
            scheme=req.scheme,
            api=req.api,
            bandwidth=req.bandwidth,
            metrics=req.metrics,
            work_conserving=req.work_conserving,
            profile=req.profile,
            prior=req.prior,
            smoothing=req.smoothing,
            smoothing_param=req.smoothing_param,
            change_threshold=req.change_threshold,
            cooldown=req.cooldown,
        )
        self.metrics.observe_stream("open")
        return {
            "session": session.session_id,
            "scheme": session.scheme,
            "n_apps": session.n_apps,
            "profile": session.profile,
            "smoothing": req.smoothing,
            "history_limit": session.history_limit,
            "idle_timeout_s": self.sessions.idle_timeout_s,
        }

    async def _handle_stream_push(
        self, session_id: str, obj
    ) -> tuple[int, dict]:
        session = self.sessions.get(session_id)
        if session is None:
            return 404, error_body(
                "NotFound", f"no stream session {session_id!r} (expired?)"
            )
        window, accesses, interference = parse_counter_push(obj, session.n_apps)
        update = session.push_counters(window, accesses, interference)
        self.metrics.observe_stream("push")
        if update.changed:
            self.metrics.observe_stream("change")
        estimate = session.current_estimate()
        stream_fields = {
            "session": session.session_id,
            "epoch": update.epoch,
            "changed": update.changed,
            "degenerate": update.degenerate,
            "apc_alone_estimate": [
                None if np.isnan(v) else float(v) for v in estimate
            ],
        }
        if np.isnan(estimate).any():
            # warm-up: some app has neither a measurement nor a prior;
            # acknowledge the push but hold off on shares (not an error
            # -- the stream becomes solvable once every app is covered)
            session.observe_health(update, beta=None, resolve_ms=None)
            return 200, dict(
                stream_fields,
                beta=None,
                reason="estimate incomplete: push counters covering every "
                "app or re-open with an apc_alone prior",
            )
        preq = PartitionRequest(
            scheme=session.scheme,
            apc_alone=tuple(float(v) for v in estimate),
            api=session.api,
            bandwidth=session.bandwidth,
            metrics=session.metrics,
            work_conserving=session.work_conserving,
            profile=session.profile,
        )
        # always a fresh solve: the estimate moves every epoch, so the
        # result cache would only churn -- but the surrogate/analytic
        # group solver is the same hot path the batch endpoints use
        source = self._partition_source(preq)
        resolve_started = time.perf_counter()
        if source == "sim":
            row = await self._solve_sim(preq)
        else:
            with obs.span("service.solve", attrs={"kind": "stream"}):
                row = self._solve_partition_group([preq])[0]
        resolve_ms = (time.perf_counter() - resolve_started) * 1000.0
        if source == "surrogate":
            self._maybe_shadow(preq, row)
        response = partition_response(preq, row, source=source)
        session.observe_health(
            update, beta=tuple(response["beta"]), resolve_ms=resolve_ms
        )
        self.watch.observe_stream_epoch(
            resolve_ms=resolve_ms, churn=session.health.last_churn
        )
        response.update(stream_fields)
        return 200, response

    def _handle_stream_info(self, session_id: str) -> tuple[int, dict]:
        info = self.sessions.info(session_id)
        if info is None:
            return 404, error_body(
                "NotFound", f"no stream session {session_id!r} (expired?)"
            )
        return 200, info

    def _handle_stream_close(self, session_id: str) -> tuple[int, dict]:
        session = self.sessions.close(session_id)
        if session is None:
            return 404, error_body(
                "NotFound", f"no stream session {session_id!r} (expired?)"
            )
        self.metrics.observe_stream("close")
        return 200, {
            "session": session.session_id,
            "closed": True,
            "epochs": session.epochs,
            "degenerate_epochs": session.degenerate_epochs,
            "change_points": session.tracker.n_changes,
        }


# benchmarks/bench_service.py times this naive path against the
# batched one (CI's bench smoke gates the ratio).
def _solve_one_partition(  # reprolint: disable=dead-code
    request: PartitionRequest,
) -> np.ndarray:
    """The naive path: one scalar solve per request (no stacking)."""
    api = request.api if request.api is not None else (1.0,) * request.n_apps
    workload = Workload.of(
        "request",
        [
            AppProfile(f"app{i}", api=api[i], apc_alone=request.apc_alone[i])
            for i in range(request.n_apps)
        ],
    )
    return scheme_by_name(request.scheme).allocate(
        workload, request.bandwidth, work_conserving=request.work_conserving
    )


def _cacheable(response: dict) -> dict:
    """Strip the per-solve envelope before storing a response."""
    return {k: v for k, v in response.items() if k not in ("cached", "batch_size")}


def _parse_json(body: bytes):
    import json

    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"body is not valid JSON: {exc}") from None


def _method_not_allowed(method: str) -> tuple[int, dict]:
    return 405, error_body("MethodNotAllowed", f"method {method} not allowed")
