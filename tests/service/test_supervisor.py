"""Pre-fork supervisor: spawn, drain, crash-restart, fleet metrics.

These tests fork real worker processes and talk to them over real
sockets -- they are the scale-out acceptance tests, kept small (2
workers, short backoffs) so the whole module stays in CI-smoke budget.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.service import ServiceClient, ServiceConfig
from repro.service.supervisor import Supervisor, reuse_port_supported

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


def make_supervisor(**overrides) -> Supervisor:
    overrides.setdefault("workers", 2)
    overrides.setdefault("port", 0)
    overrides.setdefault("shutdown_grace_s", 1.0)
    overrides.setdefault("restart_backoff_s", 0.05)
    return Supervisor(ServiceConfig(**overrides))


def wait_until(predicate, timeout_s: float = 15.0, interval_s: float = 0.1):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"condition not met within {timeout_s}s")


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_supervisor_requires_multiple_workers():
    with pytest.raises(ValueError):
        Supervisor(ServiceConfig(workers=1))


def test_two_workers_serve_one_port():
    sup = make_supervisor()
    sup.start()
    try:
        assert len(sup.worker_pids()) == 2
        with ServiceClient(port=sup.port) as client:
            body = client.healthz()
            assert body["status"] == "ok"
            assert body["workers"] == 2
            assert body["worker_id"] in (0, 1)
            answer = client.partition(APC, 0.01, api=API)
            assert len(answer["beta"]) == 3
    finally:
        sup.stop()


def test_sigterm_drains_in_flight_request_and_sessions():
    """Workers TERMed mid-request finish it, close streams, exit 0."""
    sup = make_supervisor()
    sup.start()
    procs = list(sup._procs.values())
    client = ServiceClient(port=sup.port)
    opened = client.stream_open(API, 0.01, apc_alone=APC)
    assert opened["session"]
    # park a request on the wire, then stop the fleet before reading
    # the response: the drain must complete the solve, not cut it
    import http.client as http_client

    conn = http_client.HTTPConnection("127.0.0.1", sup.port, timeout=30)
    conn.request(
        "POST",
        "/v1/partition",
        body=__import__("json").dumps(
            {"scheme": "sqrt", "apc_alone": APC, "api": API,
             "bandwidth": 0.01, "profile": "sim"}
        ),
        headers={"Content-Type": "application/json"},
    )
    started = time.monotonic()
    sup.stop()
    elapsed = time.monotonic() - started
    response = conn.getresponse()
    assert response.status == 200
    assert b"beta" in response.read()
    conn.close()
    client.close()
    # drain deadline: shutdown_grace_s (1s) + supervisor margin (5s)
    assert elapsed < 10.0
    # exit 0 everywhere = every worker drained cleanly (stream close
    # included); a kill would show as -SIGKILL
    assert [p.exitcode for p in procs] == [0, 0]


def test_killed_worker_is_restarted_and_no_request_is_lost():
    sup = make_supervisor()
    sup.start()
    try:
        before = sup.worker_pids()
        victim_slot, victim_pid = next(iter(before.items()))
        os.kill(victim_pid, signal.SIGKILL)

        # traffic straight through the crash window: every request must
        # be answered exactly once -- request_with_retry re-sends only
        # requests whose connection died without a response
        answers = []
        with ServiceClient(port=sup.port, timeout=10.0) as client:
            for i in range(40):
                body = client.request_with_retry(
                    "POST",
                    "/v1/partition",
                    {"scheme": "sqrt", "apc_alone": APC, "api": API,
                     "bandwidth": 0.01},
                    max_attempts=6,
                )
                answers.append(body["beta"])
                time.sleep(0.01)
        assert len(answers) == 40
        assert all(a == answers[0] for a in answers)  # deterministic solve

        def respawned():
            pids = sup.worker_pids()
            pid = pids.get(victim_slot)
            return pid is not None and pid != victim_pid and len(pids) == 2

        wait_until(respawned)
        # the fleet is whole again and the new worker serves
        with ServiceClient(port=sup.port) as client:
            wait_until(lambda: client.healthz()["status"] == "ok")
    finally:
        sup.stop()


# ----------------------------------------------------------------------
# cross-worker behaviour
# ----------------------------------------------------------------------
def test_shared_cache_hits_across_workers():
    sup = make_supervisor()
    sup.start()
    try:
        # same key from many fresh connections: REUSEPORT spreads them
        # over both workers, so unless one worker saw every single
        # connection (p ~ 2^-29) the second worker's first sight of the
        # key must come out of the shared segment
        for _ in range(30):
            with ServiceClient(port=sup.port) as client:
                body = client.partition(APC, 0.01, api=API)
                assert len(body["beta"]) == 3

        def shared_hits():
            with ServiceClient(port=sup.port) as client:
                metrics = client.metrics()
            return metrics["cluster"]["cache"]["shared_hits"] or None

        assert wait_until(shared_hits, timeout_s=10.0) >= 1
    finally:
        sup.stop()


def test_metrics_are_aggregated_across_workers():
    sup = make_supervisor(metrics_sync_s=0.2)
    sup.start()
    try:
        n_requests = 12
        for _ in range(n_requests):
            with ServiceClient(port=sup.port) as client:
                client.partition(APC, 0.01, api=API)

        def fleet_converged():
            with ServiceClient(port=sup.port) as client:
                m = client.metrics()
            seen = m["endpoints"].get("/v1/partition", {}).get("requests", 0)
            return m if (m.get("aggregated") and seen >= n_requests) else None

        merged = wait_until(fleet_converged, timeout_s=10.0)
        assert merged["n_workers"] == 2
        workers = merged["workers"]
        assert len(workers) == 2
        pids = {w["pid"] for w in workers.values()}
        assert len(pids) == 2  # genuinely distinct processes
        for w in workers.values():
            assert w["age_s"] < 30.0
        # merged latency window spans the fleet
        stats = merged["endpoints"]["/v1/partition"]
        assert stats["latency_ms"]["p50"] > 0
    finally:
        sup.stop()


@pytest.mark.skipif(not reuse_port_supported(), reason="needs SO_REUSEPORT")
def test_handoff_mode_serves_too():
    sup = make_supervisor(reuse_port=False)
    sup.start()
    try:
        assert sup.mode == "handoff"
        with ServiceClient(port=sup.port) as client:
            assert client.healthz()["status"] == "ok"
            assert len(client.partition(APC, 0.01, api=API)["beta"]) == 3
    finally:
        sup.stop()
