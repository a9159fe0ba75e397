"""Cross-worker ``/metrics`` aggregation for the pre-fork server.

With ``--workers N`` a ``GET /metrics`` lands on *one* worker, and
silently reporting that process as if it were the service would
under-count the fleet by roughly ``(N-1)/N``.  Instead every worker
periodically (and on each ``/metrics`` request) drops a snapshot dump
-- counters plus the **raw** latency windows, because percentiles
cannot be merged but samples can -- into the supervisor's runtime
directory via :func:`repro.util.cache.atomic_write_json`.  The worker
answering ``/metrics`` then reads every sibling's latest dump and
serves the merged fleet view: counters summed, latency windows
concatenated and re-ranked, per-worker gauges (pid, uptime, in-flight,
cache occupancy) labelled by ``worker_id`` under ``workers`` instead
of being averaged into meaninglessness.

Peer dumps are bounded-stale (at most ``metrics_sync_s`` plus one
write); each worker's ``age_s`` is reported so dashboards can see the
staleness instead of guessing.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.obs.registry import nearest_rank_percentile
from repro.util.cache import atomic_write_json

__all__ = [
    "worker_dump_path",
    "write_worker_dump",
    "read_worker_dumps",
    "merge_worker_dumps",
]

_DUMP_PREFIX = "worker-"


def worker_dump_path(runtime_dir: str, worker_id: int) -> pathlib.Path:
    return pathlib.Path(runtime_dir) / f"{_DUMP_PREFIX}{worker_id}.json"


def write_worker_dump(runtime_dir: str, worker_id: int, payload: dict) -> None:
    """Atomically publish one worker's snapshot (peers read these)."""
    path = worker_dump_path(runtime_dir, worker_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, dict(payload, written_unix=time.time()))


def read_worker_dumps(runtime_dir: str) -> list[dict]:
    """Every worker's latest dump, sorted by worker id."""
    root = pathlib.Path(runtime_dir)
    dumps: list[dict] = []
    if not root.is_dir():
        return dumps
    for path in sorted(root.glob(f"{_DUMP_PREFIX}*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue  # sibling mid-restart; its next flush self-heals
        if isinstance(payload, dict) and "worker_id" in payload:
            dumps.append(payload)
    dumps.sort(key=lambda d: d.get("worker_id", 0))
    return dumps


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _merge_stat_dumps(dumps: list[dict]) -> dict:
    """Sum counters, concatenate latency windows, re-rank percentiles."""
    requests = sum(d.get("requests", 0) for d in dumps)
    errors = sum(d.get("errors", 0) for d in dumps)
    timeouts = sum(d.get("timeouts", 0) for d in dumps)
    sheds = sum(d.get("sheds", 0) for d in dumps)
    window = sorted(
        v for d in dumps for v in d.get("latencies_ms", ()) if v is not None
    )
    return {
        "requests": requests,
        "errors": errors,
        "timeouts": timeouts,
        "sheds": sheds,
        "latency_ms": {
            "window": len(window),
            "mean": sum(window) / len(window) if window else 0.0,
            "p50": nearest_rank_percentile(window, 0.50),
            "p90": nearest_rank_percentile(window, 0.90),
            "p99": nearest_rank_percentile(window, 0.99),
            "max": window[-1] if window else 0.0,
        },
    }


def _merge_sections(dumps: list[dict], section: str) -> dict:
    """Merge a ``{name: stat-dump}`` section across workers."""
    names: dict[str, list[dict]] = {}
    for dump in dumps:
        for name, stats in (dump.get(section) or {}).items():
            names.setdefault(name, []).append(stats)
    return {name: _merge_stat_dumps(parts) for name, parts in sorted(names.items())}


def _sum_field(dumps: list[dict], section: str, name: str) -> int:
    return sum((d.get(section) or {}).get(name, 0) for d in dumps)


def merge_worker_dumps(dumps: list[dict]) -> dict:
    """The fleet view: summed counters, merged histograms, labelled gauges."""
    now = time.time()
    batching = {
        "batches": _sum_field(dumps, "batching", "batches"),
        "batched_requests": _sum_field(dumps, "batching", "batched_requests"),
        "max_batch_size": max(
            [(d.get("batching") or {}).get("max_batch_size", 0) for d in dumps],
            default=0,
        ),
    }
    batching["mean_batch_size"] = (
        batching["batched_requests"] / batching["batches"]
        if batching["batches"]
        else 0.0
    )
    cache = {
        "hits": _sum_field(dumps, "cache", "hits"),
        "misses": _sum_field(dumps, "cache", "misses"),
        "puts": _sum_field(dumps, "cache", "puts"),
        "shared_hits": _sum_field(dumps, "cache", "shared_hits"),
    }
    admission = {
        "admitted": _sum_field(dumps, "admission", "admitted"),
        "rejected": _sum_field(dumps, "admission", "rejected"),
        "inflight": _sum_field(dumps, "admission", "inflight"),
    }
    workers = {
        str(d.get("worker_id")): {
            "worker_id": d.get("worker_id"),
            "pid": d.get("pid"),
            "uptime_s": d.get("uptime_s"),
            "inflight": (d.get("admission") or {}).get("inflight", 0),
            "requests": sum(
                s.get("requests", 0) for s in (d.get("endpoints") or {}).values()
            ),
            "sessions": (d.get("sessions") or {}).get("active", 0),
            "age_s": max(0.0, now - d.get("written_unix", now)),
        }
        for d in dumps
    }
    solvers = _merge_sections(dumps, "solvers")
    speedup: dict[str, float] = {}
    sim_mean = (solvers.get("sim") or {}).get("latency_ms", {}).get("mean", 0.0)
    if sim_mean > 0:
        for source, stats in solvers.items():
            mean = stats["latency_ms"]["mean"]
            if source != "sim" and mean > 0:
                speedup[source] = sim_mean / mean
    return {
        "workers": workers,
        "n_workers": len(dumps),
        "endpoints": _merge_sections(dumps, "endpoints"),
        "solvers": solvers,
        "speedup_vs_sim": speedup,
        "batching": batching,
        "cache": cache,
        "admission": admission,
        "sessions": {
            "active": sum((d.get("sessions") or {}).get("active", 0) for d in dumps)
        },
    }


def prune_worker_dump(runtime_dir: str, worker_id: int) -> None:
    """Drop a departed worker's dump so the fleet view stops counting it."""
    try:
        os.unlink(worker_dump_path(runtime_dir, worker_id))
    except OSError:
        pass
