#!/usr/bin/env python
"""Benchmark + gates for the watch layer (``repro.watch``).

Three gates, one JSON artifact (``BENCH_watch.json`` at the repo top
level, or ``$BENCH_OUT_DIR``):

1. **Shadow overhead** -- what shadow-sampling at the default 5% rate
   adds to the request path, served in-process (no sockets, cache off,
   unbatched).  The gate counts what the host cannot move, on every
   shadowed run:

   * every request is a surrogate solve, and the sampler is asked once
     per solve;
   * due samples (sampled plus skipped by the inflight bound) equal the
     surrogate solves divided by the stride, exactly;
   * no more than ``shadow_max_inflight`` shadow sims ever run at once,
     and every sampled shadow runs one sim;
   * no shadow sim runs on the event-loop thread.

   A cost the counts cannot see (work added per due sample) is left to
   wall-clock checks with perfbench's rule: ``--repeats`` alternating
   shadowed/unshadowed pairs, and a failure only when the shadowed run
   is the slower one in at least nine of ten pairs, *and* its median
   exceeds the unshadowed median by more than ``--threshold`` percent
   of the unshadowed request path (default 3), *and* by more than the
   unshadowed runs' interquartile spread.  The rule is applied twice:
   to each run's whole request path, and to the requests on which a
   sample was due, where a per-sample cost lands without the noise of
   the other requests.
2. **Drift detection** -- serving a deliberately perturbed surrogate
   artifact (passing model card, coefficients scaled to 0.5x) under
   shadow rate 1.0 must flip the ``degraded`` flag within
   ``--flag-budget`` requests (default 50).
3. **repro-top smoke** -- ``repro-top --once`` against a real HTTP
   server on an ephemeral port must exit 0 and render every pane.

Run (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/bench_watch.py
    PYTHONPATH=src python benchmarks/bench_watch.py --requests 200 --repeats 20
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import pathlib
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import numpy as np  # noqa: E402

from repro.service import PartitionService, ServiceConfig  # noqa: E402
from repro.surrogate import simpath  # noqa: E402
from repro.watch.drift import ShadowSampler  # noqa: E402
from repro.surrogate.artifact import SurrogateModel, save_model  # noqa: E402
from repro.surrogate.fit import (  # noqa: E402
    DEFAULT_TERMS,
    QualityThresholds,
    SchemeFit,
)

APC = [0.004, 0.007, 0.002]


def make_model(coef_scale: float = 1.0) -> SurrogateModel:
    """A fabricated ``min(x, g)``-surface artifact with a passing card.

    ``coef_scale=1.0`` tracks the sim within ~2.5% at contended
    operating points; ``0.5`` predicts half the true surface -- the
    perturbation the drift gate must catch online, because the stored
    card still claims fit-time quality.
    """
    coef = tuple(
        coef_scale if term == "min_xg" else 0.0 for term in DEFAULT_TERMS
    )
    return SurrogateModel(
        sweep_digest="ab" * 32,
        fits={
            "sqrt": SchemeFit(
                scheme="sqrt", terms=DEFAULT_TERMS, coef=coef, r2=0.999,
                mape=0.01, n_train=96, n_test=24, ridge=False,
            )
        },
        thresholds=QualityThresholds(),
        defaults={"row_locality": 0.6, "bank_frac": 0.9},
        settings={"preset": "bench"},
    )


def service_config(artifact_dir: str, **overrides) -> ServiceConfig:
    base = dict(
        batching=False,  # handle() without start(): pure request path
        cache=False,  # every request must actually solve
        surrogate_dir=artifact_dir,
    )
    base.update(overrides)
    return ServiceConfig(**base)


async def serve_requests(
    service: PartitionService, n: int, seed: int
) -> tuple[list[float], int]:
    """Serve ``n`` in-process surrogate requests.

    Returns each request's request-path seconds and how many requests
    the surrogate answered.
    """
    rng = np.random.default_rng(seed)
    seconds: list[float] = []
    surrogate_solves = 0
    for _ in range(n):
        apc = (np.array(APC) * rng.uniform(0.9, 1.1, size=3)).tolist()
        body = json.dumps(
            {"scheme": "sqrt", "apc_alone": apc, "bandwidth": 0.01,
             "profile": "surrogate"}
        ).encode()
        t0 = time.perf_counter()
        status, out = await service.handle("POST", "/v1/partition", body)
        seconds.append(time.perf_counter() - t0)
        if status != 200:
            raise RuntimeError(f"bench request failed: {status} {out}")
        surrogate_solves += out.get("source") == "surrogate"
    return seconds, surrogate_solves


# ----------------------------------------------------------------------
# gate 1: shadow-sampling overhead on the request path
# ----------------------------------------------------------------------
class ShadowProbe:
    """Counts the shadow sims a service starts.

    It wraps :func:`repro.surrogate.simpath.simulate_partition_request`,
    which the server imports when a shadow runs, and records how many
    run at once and how many run on the event-loop thread.
    """

    def __init__(self) -> None:
        self.loop_thread = threading.get_ident()
        self._lock = threading.Lock()
        self.sims = 0
        self.active = 0
        self.peak = 0
        self.on_loop_thread = 0

    @contextlib.contextmanager
    def installed(self):
        original = simpath.simulate_partition_request

        def counted(*args, **kwargs):
            with self._lock:
                self.sims += 1
                self.active += 1
                self.peak = max(self.peak, self.active)
                self.on_loop_thread += threading.get_ident() == self.loop_thread
            try:
                return original(*args, **kwargs)
            finally:
                with self._lock:
                    self.active -= 1

        simpath.simulate_partition_request = counted
        try:
            yield self
        finally:
            simpath.simulate_partition_request = original


def _iqr(xs: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def _pairs(on: list[float], off: list[float], path_off: list[float]) -> dict:
    """The medians, spread and pair count the wall-clock rule reads.

    The overhead is a share of the unshadowed *whole* request path, so
    the due requests' gap is bounded by the same 3% as the whole path.
    """
    med_on = statistics.median(on)
    med_off = statistics.median(off)
    return {
        "median_ms_shadow": med_on * 1000.0,
        "median_ms_baseline": med_off * 1000.0,
        "iqr_ms_baseline": _iqr(off) * 1000.0,
        "shadow_slower_pairs": sum(a > b for a, b in zip(on, off)),
        "overhead_pct": 100.0 * (med_on - med_off) / statistics.median(path_off),
    }


#: the inflight bound of the overhead gate's shadowed runs
MAX_INFLIGHT = 2


async def bench_overhead(
    artifact_dir: str, requests: int, repeats: int, rate: float
) -> dict:
    """Alternating shadowed/unshadowed runs (a warmup pair first, not timed).

    Each run is timed twice: its whole request path, and the requests on
    which a sample was due (the same request numbers on both sides).  The
    second isolates a cost paid per due sample from the noise of the
    other requests.
    """
    probe = ShadowProbe()  # on the event-loop thread
    stride = ShadowSampler(rate).stride
    timed: dict[str, dict[bool, list[float]]] = {
        "request_path": {True: [], False: []},
        "due_requests": {True: [], False: []},
    }
    counts = dict.fromkeys(
        ("surrogate_solves", "sampler_calls", "due", "sampled",
         "skipped_inflight"), 0
    )
    with probe.installed():
        for i in range(repeats + 1):
            for with_shadow in ((True, False) if i % 2 else (False, True)):
                service = PartitionService(service_config(
                    artifact_dir,
                    shadow_rate=rate if with_shadow else 0.0,
                    shadow_max_inflight=MAX_INFLIGHT,
                ))
                seconds, solves = await serve_requests(
                    service, requests, seed=17 + i
                )
                await service.drain_shadows()
                if i > 0:  # the warmup pair: imports, allocator, caches
                    timed["request_path"][with_shadow].append(sum(seconds))
                    timed["due_requests"][with_shadow].append(
                        sum(seconds[stride - 1::stride])
                    )
                if with_shadow:
                    snap = service.watch.sampler.snapshot()
                    counts["surrogate_solves"] += solves
                    counts["sampler_calls"] += snap["calls"]
                    counts["due"] += solves // snap["stride"]
                    counts["sampled"] += snap["sampled"]
                    counts["skipped_inflight"] += snap["skipped_inflight"]
    return {
        "requests_per_side": requests,
        "pairs": repeats,
        "rate": rate,
        "max_inflight": MAX_INFLIGHT,
        "shadowed_runs": repeats + 1,
        **counts,
        "shadow_sims": probe.sims,
        "peak_concurrent_sims": probe.peak,
        "sims_on_event_loop_thread": probe.on_loop_thread,
        **{
            name: _pairs(t[True], t[False], timed["request_path"][False])
            for name, t in timed.items()
        },
    }


def overhead_failures(o: dict, threshold: float) -> list[str]:
    """Every way the overhead record breaks the gate."""
    failures = []
    runs = o["shadowed_runs"]
    if o["surrogate_solves"] != runs * o["requests_per_side"]:
        failures.append(f"{o['surrogate_solves']} surrogate solves in "
                        f"{runs} runs of {o['requests_per_side']} requests")
    if o["sampler_calls"] != o["surrogate_solves"]:
        failures.append(f"sampler asked {o['sampler_calls']} times for "
                        f"{o['surrogate_solves']} surrogate solves")
    if o["sampled"] + o["skipped_inflight"] != o["due"]:
        failures.append(f"{o['sampled']} sampled + {o['skipped_inflight']} "
                        f"skipped, but {o['due']} samples were due")
    if o["shadow_sims"] != o["sampled"]:
        failures.append(f"{o['shadow_sims']} shadow sims for "
                        f"{o['sampled']} sampled shadows")
    if o["peak_concurrent_sims"] > o["max_inflight"]:
        failures.append(f"{o['peak_concurrent_sims']} shadow sims ran at "
                        f"once (bound {o['max_inflight']})")
    if o["sims_on_event_loop_thread"]:
        failures.append(f"{o['sims_on_event_loop_thread']} shadow sims ran "
                        "on the event-loop thread")
    for name in ("request_path", "due_requests"):
        t = o[name]
        gap_ms = t["median_ms_shadow"] - t["median_ms_baseline"]
        if (10 * t["shadow_slower_pairs"] >= 9 * o["pairs"]
                and t["overhead_pct"] > threshold
                and gap_ms > t["iqr_ms_baseline"]):
            failures.append(
                f"{name}: shadowed slower in {t['shadow_slower_pairs']} of "
                f"{o['pairs']} pairs, median gap {t['overhead_pct']:+.2f} % of "
                f"the request path, above {threshold:.1f} % and the unshadowed "
                f"IQR ({t['iqr_ms_baseline']:.2f} ms)"
            )
    return failures


# ----------------------------------------------------------------------
# gate 2: the drift detector flags a perturbed artifact
# ----------------------------------------------------------------------
async def bench_drift_flagging(artifact_dir: str, flag_budget: int) -> dict:
    service = PartitionService(service_config(
        artifact_dir,
        shadow_rate=1.0,
        shadow_max_inflight=8,
        drift_min_samples=6,
    ))
    rng = np.random.default_rng(23)
    served = 0
    flagged_at: int | None = None
    while served < flag_budget:
        for _ in range(4):
            apc = (np.array(APC) * rng.uniform(0.9, 1.1, size=3)).tolist()
            body = json.dumps(
                {"scheme": "sqrt", "apc_alone": apc, "bandwidth": 0.01,
                 "profile": "surrogate"}
            ).encode()
            await service.handle("POST", "/v1/partition", body)
            served += 1
        await service.drain_shadows()
        if service.watch.drift.degraded:
            flagged_at = served
            break
    snapshot = service.watch.drift.snapshot()
    # degraded + auto-fallback: the next surrogate request rides the sim
    status, after = await service.handle(
        "POST", "/v1/partition",
        json.dumps({"scheme": "sqrt", "apc_alone": APC, "bandwidth": 0.01,
                    "profile": "surrogate"}).encode(),
    )
    return {
        "flag_budget": flag_budget,
        "flagged_after_requests": flagged_at,
        "online_mape": snapshot["schemes"].get("sqrt", {}).get("mape"),
        "auto_fallback_source": after.get("source"),
    }


# ----------------------------------------------------------------------
# gate 3: repro-top --once against a real server
# ----------------------------------------------------------------------
async def bench_repro_top(artifact_dir: str) -> dict:
    from repro.watch.top import main as top_main

    service = PartitionService(ServiceConfig(
        port=0, cache=False, surrogate_dir=artifact_dir
    ))
    await service.start()
    try:
        await serve_requests(service, 5, seed=3)
        code = await asyncio.to_thread(
            top_main, ["--once", "--port", str(service.port)]
        )
    finally:
        await service.stop()
    return {"exit_code": code}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=400,
                        help="in-process requests per overhead side")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed alternating pairs (default 15, min 10, "
                             "plus 1 warmup)")
    parser.add_argument("--rate", type=float, default=0.05,
                        help="shadow rate under test (default 0.05)")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="wall-clock bound on the median request-path "
                             "overhead, percent (default 3); a failure also "
                             "needs the shadowed run slower in 9 of 10 pairs "
                             "and the gap above the unshadowed interquartile "
                             "spread")
    parser.add_argument("--flag-budget", type=int, default=50,
                        help="requests within which drift must be flagged")
    args = parser.parse_args(argv)
    if args.repeats < 10:
        parser.error("--repeats must be at least 10")

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as healthy_dir, \
            tempfile.TemporaryDirectory() as drifted_dir:
        save_model(make_model(1.0), healthy_dir)
        save_model(make_model(0.5), drifted_dir)

        overhead = asyncio.run(bench_overhead(
            healthy_dir, args.requests, args.repeats, args.rate
        ))
        print(f"shadow rate        : {overhead['rate']:.2f} over "
              f"{overhead['shadowed_runs']} runs: "
              f"{overhead['surrogate_solves']} surrogate solves, "
              f"{overhead['due']} due, {overhead['sampled']} sampled, "
              f"{overhead['skipped_inflight']} shed by the inflight bound")
        print(f"shadow sims        : {overhead['shadow_sims']} run, at most "
              f"{overhead['peak_concurrent_sims']} at once (bound "
              f"{overhead['max_inflight']}), "
              f"{overhead['sims_on_event_loop_thread']} on the event loop")
        print(f"pairs              : {overhead['pairs']} (alternating); a "
              f"timing fails when shadowed is slower in 9 of 10 pairs, by "
              f"more than {args.threshold:.1f} % of the request path and the "
              f"unshadowed IQR")
        for name in ("request_path", "due_requests"):
            t = overhead[name]
            print(f"{name:<19}: shadow {t['median_ms_shadow']:8.2f} ms, off "
                  f"{t['median_ms_baseline']:8.2f} ms (IQR "
                  f"{t['iqr_ms_baseline']:.2f}), {t['overhead_pct']:+7.2f} %, "
                  f"slower in {t['shadow_slower_pairs']}")
        failures += overhead_failures(overhead, args.threshold)

        drift = asyncio.run(bench_drift_flagging(
            drifted_dir, args.flag_budget
        ))
        print(f"drift flagged after: {drift['flagged_after_requests']} "
              f"requests (budget {drift['flag_budget']}; online MAPE "
              f"{drift['online_mape']:.3f})" if drift["flagged_after_requests"]
              else f"drift NOT flagged within {drift['flag_budget']} requests")
        print(f"auto-fallback      : source={drift['auto_fallback_source']}")
        if drift["flagged_after_requests"] is None:
            failures.append("drift detector missed the perturbed artifact")
        if drift["auto_fallback_source"] != "sim":
            failures.append("degraded artifact kept serving (no auto-fallback)")

        top = asyncio.run(bench_repro_top(healthy_dir))
        print(f"repro-top --once   : exit {top['exit_code']}")
        if top["exit_code"] != 0:
            failures.append("repro-top --once smoke failed")

    record = {
        "overhead": overhead,
        "threshold_pct": args.threshold,
        "drift": drift,
        "repro_top": top,
        "passing": not failures,
    }
    out_dir = os.environ.get("BENCH_OUT_DIR")
    base = pathlib.Path(out_dir) if out_dir else pathlib.Path(
        __file__).resolve().parent.parent
    base.mkdir(parents=True, exist_ok=True)
    out = base / "BENCH_watch.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
