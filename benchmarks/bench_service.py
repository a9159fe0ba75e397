#!/usr/bin/env python
"""Load generator for repro.service: batched vs unbatched throughput.

Two comparisons, both on the closed-form (``sqrt``) endpoint:

1. **Solve path** -- a naive one-request-one-solve loop through the
   scalar scheme API (a ``Workload`` per request, then
   ``scheme_by_name(...).allocate``) against micro-batched groups
   through ``solve_partition_rows`` (one stacked numpy solve per group).
   The server's ``--no-batch`` mode is neither: it calls
   ``solve_partition_rows`` with one request at a time, which takes the
   float row kernel.  This isolates the speedup the service's batching
   exists to capture, without HTTP framing noise.  The acceptance bar
   is >= 5x, judged over 10 alternating timing pairs: the run fails
   only when the batched path misses 5x in at least nine of them.

2. **HTTP path** -- an in-process server on an ephemeral port, hammered
   by concurrent asyncio clients, once with micro-batching enabled and
   once without.  Reports RPS and p50/p99 latency for each mode.

``--profile surrogate`` runs a different comparison instead: it fits a
smoke-sweep surrogate artifact (SimCache-deduped; assembly-only when
the sweep already ran), serves it from an in-process server, and
drives ``profile: "surrogate"`` requests against ``profile: "sim"``
requests.  The mean *solve-path* latencies come from the server's own
``/metrics`` ``solvers`` section (so HTTP framing is excluded) and the
reported ``speedup_vs_sim`` must clear the 50x acceptance bar.

``--saturation`` runs the scale-out harness instead: a single-process
server and a pre-fork fleet (``--workers``), each ramped with an
**open-loop** arrival schedule (arrivals fire on the offered-rate
clock, not on completions, so latency includes client-side queueing --
no coordinated omission).  The knee is the highest offered rate a mode
sustains (achieved >= 90% of offered, error rate <= 1%); the artifact
records throughput and p50/p99 at the knee for both modes, the
fleet/single speedup, the cross-worker shared-cache hit check, the
overload 429+Retry-After shed check, and a bit-identity sweep proving
the fleet answers exactly what the single-process server answers.
Results land in top-level ``BENCH_service.json``; gates that require
more cores than the host has (a 1-CPU box cannot exhibit a 4-worker
speedup) are recorded as waived with the measured value, never faked.

Run:

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --requests 2000 --clients 32
    PYTHONPATH=src python benchmarks/bench_service.py --profile surrogate
    PYTHONPATH=src python benchmarks/bench_service.py --saturation --smoke --workers 2
    PYTHONPATH=src python benchmarks/bench_service.py --saturation --workers 4
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import signal
import statistics
import time

import numpy as np

from repro.service.batching import solve_partition_rows
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.protocol import parse_partition_request, partition_response
from repro.service.server import PartitionService, _solve_one_partition
from repro.service.supervisor import Supervisor, _worker_main
from repro.util.cache import atomic_write_json


def make_requests(count: int, n_apps: int, seed: int = 7, with_metrics: bool = False):
    """Distinct parsed sqrt-scheme requests (no two hit the same cache key).

    By default the requests carry no ``api`` vector, so responses skip
    the (scalar, per-row) metric computation and the comparison isolates
    the allocation solve itself; ``--with-metrics`` adds it back.
    """
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        payload = {
            "scheme": "sqrt",
            "apc_alone": rng.uniform(1e-4, 0.02, size=n_apps).tolist(),
            "bandwidth": float(rng.uniform(5e-3, 0.05)),
        }
        if with_metrics:
            payload["api"] = rng.uniform(1e-3, 0.08, size=n_apps).tolist()
        requests.append(parse_partition_request(payload))
    return requests


def pctl(samples, q):
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
    return ordered[rank]


# ----------------------------------------------------------------------
# 1. solve path: naive loop vs vectorized micro-batch
# ----------------------------------------------------------------------
#: the batched solve path must be at least this many times faster
SPEEDUP_FLOOR = 5.0
#: alternating naive/batched timing pairs the solve-path gate judges
SOLVER_PAIRS = 10


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_solver(requests, batch_size: int) -> bool:
    """Time both solve paths in alternating pairs; True if the gate passes.

    Each pair times the naive loop and the batched path over the same
    requests, naive first in even pairs and batched first in odd ones.
    The gate is perfbench's nine-of-ten pair rule: it fails only when
    the batched path misses the 5x floor in at least nine of ten pairs.
    A burst of host load moves a pair or two; a batched path that
    solves row by row (about 2.4x) misses in every pair.
    """

    def naive():
        return [
            partition_response(r, _solve_one_partition(r), batch_size=1)
            for r in requests
        ]

    def batched():
        out = []
        for start in range(0, len(requests), batch_size):
            chunk = requests[start : start + batch_size]
            rows = solve_partition_rows(chunk)
            out.extend(
                partition_response(r, row, batch_size=len(chunk))
                for r, row in zip(chunk, rows)
            )
        return out

    for a, b in zip(naive(), batched()):
        assert a["apc_shared"] == b["apc_shared"], "batched solve diverged"

    ratios = []
    for i in range(SOLVER_PAIRS):
        if i % 2:
            batched_s, naive_s = _seconds(batched), _seconds(naive)
        else:
            naive_s, batched_s = _seconds(naive), _seconds(batched)
        ratios.append(naive_s / batched_s)
    misses = sum(r < SPEEDUP_FLOOR for r in ratios)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"solve path ({len(requests)} sqrt requests, batch={batch_size}, "
        f"{SOLVER_PAIRS} alternating pairs):"
    )
    print(f"  naive/batched speedup : median {median:.1f}x (IQR {q1:.1f}-{q3:.1f}x)")
    print(f"  pairs below {SPEEDUP_FLOOR:.0f}x       : {misses} of {SOLVER_PAIRS}")
    return misses * 10 < 9 * SOLVER_PAIRS


# ----------------------------------------------------------------------
# 2. HTTP path: in-process server, concurrent clients
# ----------------------------------------------------------------------
async def drive_http(payloads, clients: int, batching: bool):
    config = ServiceConfig(
        port=0,
        batching=batching,
        cache=False,
        max_batch_size=256,
    )
    service = PartitionService(config)
    await service.start()
    latencies: list[float] = []
    try:
        shards = [payloads[i::clients] for i in range(clients)]

        async def worker(shard):
            async with AsyncServiceClient(port=service.port) as client:
                for payload in shard:
                    t0 = time.perf_counter()
                    await client.partition(
                        payload["apc_alone"],
                        payload["bandwidth"],
                        scheme=payload["scheme"],
                        api=payload.get("api"),
                    )
                    latencies.append((time.perf_counter() - t0) * 1e3)

        t0 = time.perf_counter()
        await asyncio.gather(*(worker(s) for s in shards if s))
        elapsed = time.perf_counter() - t0
    finally:
        await service.stop()
    return len(payloads) / elapsed, latencies


async def drive_http_batch_endpoint(payloads, clients: int, chunk: int):
    """Client-side batching: /v1/partition/batch with ``chunk`` per call."""
    config = ServiceConfig(port=0, batching=False, cache=False)
    service = PartitionService(config)
    await service.start()
    latencies: list[float] = []
    try:
        calls = [payloads[i : i + chunk] for i in range(0, len(payloads), chunk)]
        shards = [calls[i::clients] for i in range(clients)]

        async def worker(shard):
            async with AsyncServiceClient(port=service.port) as client:
                for call in shard:
                    t0 = time.perf_counter()
                    await client.partition_batch(call)
                    latencies.append((time.perf_counter() - t0) * 1e3)

        t0 = time.perf_counter()
        await asyncio.gather(*(worker(s) for s in shards if s))
        elapsed = time.perf_counter() - t0
    finally:
        await service.stop()
    return len(payloads) / elapsed, latencies


def to_payloads(requests):
    payloads = []
    for r in requests:
        payload = {
            "scheme": r.scheme,
            "apc_alone": list(r.apc_alone),
            "bandwidth": r.bandwidth,
        }
        if r.api is not None:
            payload["api"] = list(r.api)
        payloads.append(payload)
    return payloads


def bench_http(requests, clients: int, chunk: int):
    payloads = to_payloads(requests)
    print(f"\nhttp path ({len(payloads)} requests, {clients} concurrent clients):")
    for label, batching in (("unbatched", False), ("micro-batched", True)):
        rps, lat = asyncio.run(drive_http(payloads, clients, batching))
        print(
            f"  {label:14s}: {rps:8.0f} req/s   "
            f"p50 {pctl(lat, 50):6.2f} ms   p99 {pctl(lat, 99):6.2f} ms   "
            f"mean {statistics.mean(lat):6.2f} ms"
        )
    rps, lat = asyncio.run(drive_http_batch_endpoint(payloads, clients, chunk))
    print(
        f"  batch endpoint: {rps:8.0f} req/s   "
        f"p50 {pctl(lat, 50):6.2f} ms/call   p99 {pctl(lat, 99):6.2f} ms/call   "
        f"({chunk} requests per call)"
    )


# ----------------------------------------------------------------------
# 3. surrogate profile: fitted surface vs the sim fallback path
# ----------------------------------------------------------------------
SURROGATE_SPEEDUP_FLOOR = 50.0


async def drive_surrogate(artifact_dir: str, count: int, sim_count: int, n_apps: int):
    """Serve the artifact; return /metrics after surrogate + sim traffic."""
    import numpy as np

    config = ServiceConfig(port=0, cache=False, surrogate_dir=artifact_dir)
    service = PartitionService(config)
    await service.start()
    try:
        rng = np.random.default_rng(7)
        async with AsyncServiceClient(port=service.port) as client:
            for profile, n in (("surrogate", count), ("sim", sim_count)):
                for _ in range(n):
                    response = await client.partition(
                        rng.uniform(5e-4, 6e-3, size=n_apps).tolist(),
                        float(rng.uniform(4e-3, 8e-3)),
                        scheme="sqrt",
                        profile=profile,
                    )
                    assert response["source"] == profile, response
            return await client.metrics()
    finally:
        await service.stop()


def bench_surrogate_profile(args) -> int:
    """Fit an artifact, serve it, and compare solve-path latencies."""
    import tempfile

    from repro.surrogate import (
        collect_dataset,
        fit_surface,
        run_sweep,
        save_model,
        smoke_settings,
        sweep_digest,
    )
    from repro.surrogate.artifact import model_from_report

    settings = smoke_settings()
    print("fitting smoke-sweep surrogate (cached sweeps are assembly-only)...")
    dataset = collect_dataset(run_sweep(settings).values())
    report = fit_surface(dataset)
    if not report.passing:
        print(report.summary())
        print("FAIL: fit below the quality gate; not serving", flush=True)
        return 1
    artifact_dir = tempfile.mkdtemp(prefix="bench-surrogate-")
    save_model(
        model_from_report(report, sweep_digest(settings)), artifact_dir
    )

    metrics = asyncio.run(
        drive_surrogate(artifact_dir, args.requests, args.sim_requests, args.apps)
    )
    solvers = metrics["solvers"]
    surr_ms = solvers["surrogate"]["latency_ms"]["mean"]
    sim_ms = solvers["sim"]["latency_ms"]["mean"]
    speedup = metrics["speedup_vs_sim"].get("surrogate", 0.0)
    fallbacks = metrics["surrogate"]["fallbacks"]
    print(
        f"solve path ({args.requests} surrogate / {args.sim_requests} sim "
        f"requests, {args.apps} apps):"
    )
    print(f"  surrogate mean solve : {surr_ms:10.4f} ms")
    print(f"  sim-path mean solve  : {sim_ms:10.2f} ms")
    print(f"  speedup_vs_sim       : {speedup:10.1f}x   (fallbacks: {fallbacks})")
    if fallbacks:
        print(f"\nFAIL: {fallbacks} unexpected surrogate fallbacks")
        return 1
    if speedup < SURROGATE_SPEEDUP_FLOOR:
        print(
            f"\nFAIL: surrogate speedup {speedup:.1f}x below the "
            f"{SURROGATE_SPEEDUP_FLOOR:.0f}x target"
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# 4. saturation: single process vs pre-fork fleet, open-loop ramps
# ----------------------------------------------------------------------
#: network/protocol errors the open-loop driver counts (not raises)
_DRIVE_ERRORS = (
    ServiceError,
    ConnectionError,
    OSError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
)


class SingleServer:
    """One PartitionService in its own forked process (fair baseline).

    The fleet workers are real processes, so the single-process
    baseline must be one too -- an in-loop server would share the
    load generator's event loop and undercount.  Reuses the
    supervisor's worker entry point with no supervisor attached.
    """

    def __init__(self, config: ServiceConfig) -> None:
        import multiprocessing

        self.config = config
        self._ctx = multiprocessing.get_context("fork")
        self._proc = None
        self.port: int | None = None

    def start(self) -> None:
        ready_q = self._ctx.Queue()
        self._proc = self._ctx.Process(
            target=_worker_main,
            args=(self.config, None, ready_q, None),
            name="bench-single-server",
        )
        self._proc.start()
        event = ready_q.get(timeout=30)
        if event[0] != "ready":
            raise RuntimeError(f"baseline server failed to start: {event}")
        self.port = event[3]

    def stop(self) -> None:
        if self._proc is None:
            return
        if self._proc.pid is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGTERM)
        self._proc.join(timeout=self.config.shutdown_grace_s + 5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._proc = None

    def __enter__(self) -> "SingleServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


async def _send_one(client, payload):
    await client.partition(
        payload["apc_alone"],
        payload["bandwidth"],
        scheme=payload["scheme"],
        api=payload.get("api"),
        profile=payload.get("profile", "analytic"),
    )


async def closed_loop_rps(port: int, payloads, clients_n: int) -> float:
    """Closed-loop burst: calibrates where to aim the open-loop ramp."""
    shards = [payloads[i::clients_n] for i in range(clients_n)]
    done = 0

    async def worker(shard):
        nonlocal done
        async with AsyncServiceClient(port=port) as client:
            for payload in shard:
                await _send_one(client, payload)
                done += 1

    t0 = time.perf_counter()
    await asyncio.gather(*(worker(s) for s in shards if s))
    return done / max(time.perf_counter() - t0, 1e-9)


async def open_loop(port: int, payloads, rate_rps: float, duration_s: float,
                    *, pool_cap: int = 96) -> dict:
    """Drive ``rate_rps`` for ``duration_s`` on the arrival clock.

    Arrivals fire when the offered-rate schedule says so, never when a
    previous response frees a slot; latency is measured from the
    *scheduled* arrival instant, so time a request spends queued behind
    a saturated connection pool is charged to the server (no
    coordinated omission).
    """
    total = max(1, int(rate_rps * duration_s))
    interval = 1.0 / rate_rps
    idle: asyncio.LifoQueue = asyncio.LifoQueue()
    opened = 0
    ok_latencies_ms: list[float] = []
    errors = 0

    async def fire(i: int, scheduled: float) -> None:
        nonlocal opened, errors
        try:
            client = idle.get_nowait()
        except asyncio.QueueEmpty:
            if opened < pool_cap:
                opened += 1
                client = AsyncServiceClient(port=port)
            else:
                client = await idle.get()
        try:
            await _send_one(client, payloads[i % len(payloads)])
        except _DRIVE_ERRORS:
            errors += 1
            await client.aclose()  # connection state is unknown; rebuild
        else:
            ok_latencies_ms.append((time.perf_counter() - scheduled) * 1e3)
        idle.put_nowait(client)

    start = time.perf_counter()
    tasks = []
    for i in range(total):
        scheduled = start + i * interval
        delay = scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(fire(i, scheduled)))
    await asyncio.gather(*tasks)
    elapsed = max(time.perf_counter() - start, 1e-9)
    while not idle.empty():
        await idle.get_nowait().aclose()
    return {
        "offered_rps": round(rate_rps, 1),
        "achieved_rps": round(len(ok_latencies_ms) / elapsed, 1),
        "sent": total,
        "ok": len(ok_latencies_ms),
        "errors": errors,
        "p50_ms": round(pctl(ok_latencies_ms, 50), 3),
        "p99_ms": round(pctl(ok_latencies_ms, 99), 3),
    }


def run_ramp(port: int, payloads, est_rps: float, fractions, step_s: float,
             label: str):
    """Open-loop stages around the calibrated rate; returns (stages, knee).

    The knee is the highest offered rate the mode *sustained*:
    achieved >= 90% of offered with an error rate <= 1%.  If even the
    lowest stage collapses, the first stage is reported (and marked
    unsustained) so the artifact still shows what was measured.
    """
    stages, knee = [], None
    for frac in fractions:
        rate = max(20.0, est_rps * frac)
        stage = asyncio.run(open_loop(port, payloads, rate, step_s))
        stage["sustained"] = bool(
            stage["achieved_rps"] >= 0.9 * stage["offered_rps"]
            and stage["errors"] <= 0.01 * stage["sent"]
        )
        print(
            f"  {label:6s} offered {stage['offered_rps']:8.0f} rps -> "
            f"achieved {stage['achieved_rps']:8.0f} rps   "
            f"p50 {stage['p50_ms']:7.2f} ms   p99 {stage['p99_ms']:7.2f} ms"
            f"{'' if stage['sustained'] else '   (collapsed)'}"
        )
        stages.append(stage)
        if stage["sustained"]:
            knee = stage
    return stages, knee or stages[0]


def check_bit_identity(single_port: int, fleet_port: int, payloads) -> dict:
    """Same request to both modes must yield byte-identical JSON bodies.

    ``cached`` and ``batch_size`` are envelope fields that legitimately
    depend on traffic shape (which batch a request landed in), not on
    the answer; everything else -- beta, apc_shared, metrics, source --
    must match exactly.
    """
    envelope = ("cached", "batch_size")

    def canon(body: dict) -> str:
        return json.dumps(
            {k: v for k, v in body.items() if k not in envelope},
            sort_keys=True,
        )

    mismatches = 0
    with ServiceClient(port=single_port) as one:
        with ServiceClient(port=fleet_port) as fleet:
            for payload in payloads:
                a = one.partition(
                    payload["apc_alone"], payload["bandwidth"],
                    scheme=payload["scheme"], api=payload.get("api"),
                    profile=payload.get("profile", "analytic"),
                )
                b = fleet.partition(
                    payload["apc_alone"], payload["bandwidth"],
                    scheme=payload["scheme"], api=payload.get("api"),
                    profile=payload.get("profile", "analytic"),
                )
                if canon(a) != canon(b):
                    mismatches += 1
    return {"checked": len(payloads), "mismatches": mismatches,
            "passed": mismatches == 0}


def check_shared_cache(port: int, payload, *, connections: int = 30,
                       timeout_s: float = 15.0) -> dict:
    """Repeat one key over fresh connections; expect cross-worker hits.

    SO_REUSEPORT spreads fresh connections over the workers, so the
    second worker's first sight of the key must come out of the shared
    segment unless every single connection landed on one worker.
    """
    for _ in range(connections):
        with ServiceClient(port=port) as client:
            client.partition(
                payload["apc_alone"], payload["bandwidth"],
                scheme=payload["scheme"], api=payload.get("api"),
            )
    hits = 0
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with ServiceClient(port=port) as client:
            metrics = client.metrics()
        hits = (
            metrics.get("cluster", {}).get("cache", {}).get("shared_hits", 0)
        )
        if hits:
            break
        time.sleep(0.2)
    return {"connections": connections, "shared_hits": hits,
            "passed": hits > 0}


async def _overload_burst(port: int, payloads, burst: int) -> dict:
    """Slam a bounded fleet with concurrent sim solves; count the sheds."""
    async def one(i: int):
        client = AsyncServiceClient(port=port)
        payload = payloads[i % len(payloads)]
        try:
            await client.partition(
                payload["apc_alone"], payload["bandwidth"],
                scheme=payload["scheme"], api=payload.get("api"),
                profile="sim",
            )
            return ("ok", None)
        except ServiceError as exc:
            if exc.status == 429:
                return ("shed", exc.retry_after_s)
            return ("error", None)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return ("error", None)
        finally:
            await client.aclose()

    outcomes = await asyncio.gather(*(one(i) for i in range(burst)))
    sheds = [hint for kind, hint in outcomes if kind == "shed"]
    return {
        "burst": burst,
        "ok": sum(1 for kind, _ in outcomes if kind == "ok"),
        "sheds": len(sheds),
        "retry_hint_present": bool(sheds) and all(
            h is not None and h > 0 for h in sheds
        ),
    }


def check_overload(port: int, payloads, *, burst: int = 40) -> dict:
    result = asyncio.run(_overload_burst(port, payloads, burst))
    # the other half of the contract: honouring the hint gets you in
    retried_ok = 0
    with ServiceClient(port=port, timeout=30.0) as client:
        for payload in payloads[:5]:
            body = client.request_with_retry(
                "POST", "/v1/partition",
                {"scheme": payload["scheme"],
                 "apc_alone": payload["apc_alone"],
                 "api": payload.get("api"),
                 "bandwidth": payload["bandwidth"],
                 "profile": "sim"},
                max_attempts=10,
            )
            retried_ok += 1 if "beta" in body else 0
    result["retried_ok"] = retried_ok
    result["passed"] = bool(
        result["sheds"] > 0 and result["retry_hint_present"]
        and retried_ok == 5
    )
    return result


def _surrogate_payloads(count: int, n_apps: int, seed: int = 11):
    """Surrogate-profile payloads inside the smoke artifact's domain."""
    rng = np.random.default_rng(seed)
    return [
        {
            "scheme": "sqrt",
            "apc_alone": rng.uniform(5e-4, 6e-3, size=n_apps).tolist(),
            "bandwidth": float(rng.uniform(4e-3, 8e-3)),
            "profile": "surrogate",
        }
        for _ in range(count)
    ]


def _fit_surrogate_artifact() -> str:
    import tempfile

    from repro.surrogate import (
        collect_dataset,
        fit_surface,
        run_sweep,
        save_model,
        smoke_settings,
        sweep_digest,
    )
    from repro.surrogate.artifact import model_from_report

    settings = smoke_settings()
    report = fit_surface(collect_dataset(run_sweep(settings).values()))
    if not report.passing:
        raise RuntimeError("surrogate fit below the quality gate")
    artifact_dir = tempfile.mkdtemp(prefix="bench-saturation-surrogate-")
    save_model(model_from_report(report, sweep_digest(settings)), artifact_dir)
    return artifact_dir


def bench_saturation(args) -> int:
    smoke = args.smoke
    workers = args.workers
    cpus = os.cpu_count() or 1
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    out_path = pathlib.Path(args.out) if args.out else repo_root / "BENCH_service.json"

    fractions = (0.5, 0.8, 1.1) if smoke else (0.4, 0.6, 0.8, 1.0, 1.2)
    step_s = 1.5 if smoke else 4.0
    calib_n = 300 if smoke else 1500
    identity_n = 64 if smoke else 128

    profile_payloads = {
        "analytic": to_payloads(
            make_requests(256, args.apps, with_metrics=True)
        ),
    }
    surrogate_dir = None
    if not smoke:
        print("fitting smoke-sweep surrogate artifact for the fleet...")
        surrogate_dir = _fit_surrogate_artifact()
        profile_payloads["surrogate"] = _surrogate_payloads(256, args.apps)

    # shadow_rate=0: the ramp measures *serving* throughput; the default
    # 5% sim shadow-sampling would contend for cores at high RPS and
    # dominate the knee (bench_watch gates shadow overhead separately)
    server_kwargs = dict(
        port=0, cache=False, shutdown_grace_s=2.0,
        surrogate_dir=surrogate_dir, shadow_rate=0.0,
    )
    profiles: dict[str, dict] = {}
    print(f"\nsaturation: {workers} workers vs 1 process on {cpus} CPU(s)")
    with SingleServer(ServiceConfig(**server_kwargs)) as single:
        with Supervisor(
            ServiceConfig(**server_kwargs, workers=workers, shared_cache=False)
        ) as fleet:
            fleet.start()
            fleet_mode = fleet.mode
            for profile, payloads in profile_payloads.items():
                print(f"profile {profile}:")
                calib = (payloads * (calib_n // len(payloads) + 1))[:calib_n]
                est_1 = asyncio.run(closed_loop_rps(single.port, calib, 8))
                stages_1, knee_1 = run_ramp(
                    single.port, payloads, est_1, fractions, step_s, "single"
                )
                est_n = asyncio.run(
                    closed_loop_rps(fleet.port, calib, max(8, 4 * workers))
                )
                stages_n, knee_n = run_ramp(
                    fleet.port, payloads, est_n, fractions, step_s, "fleet"
                )
                speedup = knee_n["achieved_rps"] / max(knee_1["achieved_rps"], 1e-9)
                print(f"  fleet/single speedup at the knee: {speedup:.2f}x")
                profiles[profile] = {
                    "single": {"calibrated_rps": round(est_1, 1),
                               "stages": stages_1, "knee": knee_1},
                    "fleet": {"calibrated_rps": round(est_n, 1),
                              "stages": stages_n, "knee": knee_n},
                    "speedup_fleet_vs_single": round(speedup, 3),
                }
            identity = check_bit_identity(
                single.port, fleet.port,
                profile_payloads["analytic"][:identity_n],
            )
            print(
                f"bit identity: {identity['checked']} requests, "
                f"{identity['mismatches']} mismatches"
            )

    # a second, *bounded* fleet exercises the overload contract and the
    # shared cache (the ramp fleet runs unbounded + uncached so the
    # knee measures solves, not cache hits)
    bounded = Supervisor(ServiceConfig(
        port=0, cache=True, workers=workers, max_inflight=2,
        shutdown_grace_s=2.0, metrics_sync_s=0.2,
    ))
    bounded.start()
    try:
        cache_check = check_shared_cache(
            bounded.port, profile_payloads["analytic"][0]
        )
        print(
            f"shared cache: {cache_check['shared_hits']} cross-worker hits "
            f"over {cache_check['connections']} fresh connections"
        )
        overload = check_overload(bounded.port, profile_payloads["analytic"])
        print(
            f"overload: {overload['sheds']}/{overload['burst']} shed with "
            f"Retry-After, {overload['retried_ok']}/5 retries landed"
        )
    finally:
        bounded.stop()

    # ---- gates (hardware-aware: never fake a speedup the host cannot
    # physically exhibit -- waive with the measured value instead) ----
    gate_profile = "surrogate" if "surrogate" in profiles else "analytic"
    measured = profiles[gate_profile]
    speedup = measured["speedup_fleet_vs_single"]
    knee = measured["fleet"]["knee"]
    tail_ratio = knee["p99_ms"] / max(knee["p50_ms"], 1e-9)
    floor = 3.0 if workers >= 4 else 0.65 * workers
    parallel_feasible = cpus > workers  # fleet + load generator need cores
    waived_reason = None if parallel_feasible else (
        f"host has {cpus} CPU(s) for {workers} workers plus the load "
        f"generator; no parallel speedup is physically available"
    )
    gates = {
        "speedup_fleet_vs_single": {
            "profile": gate_profile, "floor": floor,
            "value": speedup,
            "passed": (speedup >= floor) if parallel_feasible else None,
            "waived_reason": waived_reason,
        },
        "tail_p99_over_p50_at_knee": {
            "profile": gate_profile, "ceiling": 5.0,
            "value": round(tail_ratio, 3),
            "passed": (tail_ratio <= 5.0) if parallel_feasible else None,
            "waived_reason": waived_reason,
        },
        "shared_cache_hits": {
            "floor": 1, "value": cache_check["shared_hits"],
            "passed": cache_check["passed"],
        },
        "overload_sheds_with_retry_after": {
            "value": overload["sheds"], "passed": overload["passed"],
        },
        "bit_identity": {
            "value": identity["mismatches"], "passed": identity["passed"],
        },
    }
    enforced = [g for g in gates.values() if g["passed"] is not None]
    passed = all(g["passed"] for g in enforced)

    artifact = {
        "bench": "service-saturation",
        "mode": "smoke" if smoke else "full",
        "generated_unix": int(time.time()),
        "host": {
            "cpus": cpus,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workers": workers,
        "supervisor_mode": fleet_mode,
        "apps": args.apps,
        "profiles": profiles,
        "shared_cache": cache_check,
        "overload": overload,
        "bit_identity": identity,
        "gates": gates,
        "passed": passed,
    }
    atomic_write_json(out_path, artifact)
    print(f"\nwrote {out_path}")
    for name, gate in gates.items():
        status = ("PASS" if gate["passed"] else "FAIL") \
            if gate["passed"] is not None else "WAIVED"
        print(f"  {status:6s} {name}: {gate.get('value')}")
    if not passed:
        print("\nFAIL: saturation gates not met")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1024, help="total requests")
    parser.add_argument("--apps", type=int, default=8, help="apps per request")
    parser.add_argument("--clients", type=int, default=16, help="concurrent clients")
    parser.add_argument("--batch", type=int, default=128, help="solver batch size")
    parser.add_argument(
        "--with-metrics",
        action="store_true",
        help="include api vectors so responses compute all four metrics",
    )
    parser.add_argument(
        "--skip-http", action="store_true", help="solver comparison only"
    )
    parser.add_argument(
        "--profile",
        choices=("analytic", "surrogate"),
        default="analytic",
        help="surrogate: compare the fitted surface against the sim path",
    )
    parser.add_argument(
        "--sim-requests",
        type=int,
        default=12,
        help="sim-path requests for the surrogate comparison",
    )
    parser.add_argument(
        "--saturation",
        action="store_true",
        help="scale-out harness: single process vs pre-fork fleet, "
        "open-loop ramps, BENCH_service.json artifact",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="fleet size for --saturation"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short --saturation ramps, analytic profile only (CI budget)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="artifact path for --saturation (default: repo-root "
        "BENCH_service.json)",
    )
    args = parser.parse_args(argv)

    if args.saturation:
        if args.workers < 2:
            parser.error("--saturation needs --workers >= 2")
        return bench_saturation(args)

    if args.profile == "surrogate":
        if args.requests > 256:
            args.requests = 256  # enough for a stable mean at batch 1
        return bench_surrogate_profile(args)

    requests = make_requests(args.requests, args.apps, with_metrics=args.with_metrics)
    passed = bench_solver(requests, args.batch)
    if not args.skip_http:
        bench_http(requests, args.clients, args.batch)
    if not passed:
        print(
            f"\nFAIL: the batched solve path missed {SPEEDUP_FLOOR:.0f}x in at "
            "least nine of ten pairs"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
