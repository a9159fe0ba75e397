"""End-to-end service tests over real sockets (ephemeral ports)."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import AppProfile, Workload, scheme_by_name
from repro.service import (
    AsyncServiceClient,
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


def run_with_service(coro_factory, **config_kwargs):
    """Start a service on a free port, run the coroutine, tear down."""
    config_kwargs.setdefault("port", 0)

    async def main():
        service = PartitionService(ServiceConfig(**config_kwargs))
        await service.start()
        try:
            async with AsyncServiceClient(port=service.port) as client:
                return await coro_factory(service, client)
        finally:
            await service.stop()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# plumbing endpoints
# ----------------------------------------------------------------------
def test_healthz_reports_ok():
    async def scenario(service, client):
        return await client.healthz()

    body = run_with_service(scenario)
    assert body["status"] == "ok"
    assert body["uptime_s"] >= 0
    assert body["batching"] is True


def test_metrics_schema_and_counters():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        await client.partition(APC, 0.01, api=API)  # cache hit
        with pytest.raises(ServiceError):
            await client.partition(APC, -1.0)
        return await client.metrics()

    body = run_with_service(scenario)
    endpoint = body["endpoints"]["/v1/partition"]
    assert endpoint["requests"] == 3
    assert endpoint["errors"] == 1
    for key in ("p50", "p90", "p99", "mean", "max", "window"):
        assert key in endpoint["latency_ms"]
    # invalid request fails validation before the cache is consulted,
    # so only the two good requests touch it: one miss+put, one hit
    assert body["cache"]["hits"] == 1
    assert body["cache"]["misses"] == 1
    assert body["cache"]["puts"] == 1
    assert body["batching"]["batches"] >= 1


# ----------------------------------------------------------------------
# partition endpoint
# ----------------------------------------------------------------------
def test_partition_matches_scalar_solver_exactly():
    async def scenario(service, client):
        return await client.partition(APC, 0.01, scheme="sqrt", api=API)

    body = run_with_service(scenario)
    workload = Workload.of(
        "w", [AppProfile(f"a{i}", api=API[i], apc_alone=APC[i]) for i in range(3)]
    )
    expected = scheme_by_name("sqrt").allocate(workload, 0.01)
    assert body["apc_shared"] == expected.tolist()
    assert body["metrics"].keys() == {"hsp", "minf", "wsp", "ipcsum"}
    assert body["utilized_bandwidth"] == pytest.approx(0.01)


def test_batched_and_unbatched_modes_agree_exactly():
    async def scenario(service, client):
        outs = await asyncio.gather(
            *[
                client.partition(APC, 0.005 + 0.001 * i, api=API, scheme=scheme)
                for i in range(4)
                for scheme in ("sqrt", "prop", "prio_apc", "prio_api")
            ]
        )
        return outs

    batched = run_with_service(scenario, batching=True, cache=False)
    unbatched = run_with_service(scenario, batching=False, cache=False)
    for a, b in zip(batched, unbatched):
        assert a["apc_shared"] == b["apc_shared"]
        assert a["metrics"] == b["metrics"]


def test_concurrent_requests_coalesce():
    async def scenario(service, client):
        clients = [AsyncServiceClient(port=service.port) for _ in range(8)]
        try:
            outs = await asyncio.gather(
                *[
                    c.partition([0.004 + 0.0001 * i, 0.007, 0.002], 0.01)
                    for i, c in enumerate(clients)
                ]
            )
        finally:
            for c in clients:
                await c.aclose()
        return outs, await client.metrics()

    outs, metrics = run_with_service(scenario)
    assert max(o["batch_size"] for o in outs) >= 2
    assert metrics["batching"]["max_batch_size"] >= 2


def test_cache_hit_marks_response_and_skips_solve():
    async def scenario(service, client):
        first = await client.partition(APC, 0.01, api=API)
        second = await client.partition(APC, 0.01, api=API)
        return first, second

    first, second = run_with_service(scenario)
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["apc_shared"] == first["apc_shared"]
    assert second["metrics"] == first["metrics"]


def test_batch_endpoint_mixed_schemes_and_caching():
    requests = [
        {"scheme": s, "apc_alone": APC, "api": API, "bandwidth": 0.01}
        for s in ("sqrt", "prop", "prio_apc", "sqrt")
    ]

    async def scenario(service, client):
        results = await client.partition_batch(requests)
        again = await client.partition_batch(requests)
        return results, again

    results, again = run_with_service(scenario)
    assert len(results) == 4
    assert results[0]["apc_shared"] == results[3]["apc_shared"]
    # identical requests in one call: first solved, duplicate served
    # from cache (the solve populates it before the duplicate is seen)
    # -- either way the values agree and the second call is all-cached
    assert all(r["cached"] for r in again)
    workload = Workload.of(
        "w", [AppProfile(f"a{i}", api=API[i], apc_alone=APC[i]) for i in range(3)]
    )
    for scheme, result in zip(("sqrt", "prop", "prio_apc"), results):
        expected = scheme_by_name(scheme).allocate(workload, 0.01)
        assert result["apc_shared"] == expected.tolist()


def test_batch_endpoint_respects_request_cap():
    async def scenario(service, client):
        with pytest.raises(ServiceError) as exc_info:
            await client.partition_batch(
                [{"apc_alone": APC, "bandwidth": 0.01}] * 5
            )
        return exc_info.value

    error = run_with_service(scenario, max_requests_per_call=4)
    assert error.status == 400


# ----------------------------------------------------------------------
# qos endpoint
# ----------------------------------------------------------------------
def test_qos_endpoint_plans_and_rejects_infeasible():
    async def scenario(service, client):
        plan = await client.qos(APC, API, 0.01, [(0, 0.1)])
        with pytest.raises(ServiceError) as exc_info:
            await client.qos(APC, API, 0.001, [(0, 0.13)])
        return plan, exc_info.value

    plan, error = run_with_service(scenario)
    assert plan["qos_apps"] == [0]
    assert plan["b_qos"] == pytest.approx(0.1 * API[0])
    assert plan["b_best_effort"] == pytest.approx(0.01 - 0.1 * API[0])
    assert sum(plan["apc_shared"]) == pytest.approx(0.01)
    assert error.status == 422
    assert error.error_type == "InfeasibleError"


# ----------------------------------------------------------------------
# transport-level behaviour
# ----------------------------------------------------------------------
def test_unknown_route_and_wrong_method():
    async def scenario(service, client):
        try:
            await client._request("GET", "/nope")
        except ServiceError as exc:
            not_found = exc
        try:
            await client._request("GET", "/v1/partition")
        except ServiceError as exc:
            wrong_method = exc
        return not_found, wrong_method

    not_found, wrong_method = run_with_service(scenario)
    assert not_found.status == 404
    assert wrong_method.status == 405


def test_malformed_json_is_400():
    async def scenario(service, client):
        status, payload = await service.handle(
            "POST", "/v1/partition", b"{not json"
        )
        return status, payload

    status, payload = run_with_service(scenario)
    assert status == 400
    assert payload["error"]["type"] == "ConfigurationError"


def test_oversized_body_is_413():
    async def scenario(service, client):
        huge = [0.001] * 100000  # serializes way past max_body_bytes
        with pytest.raises((ServiceError, ConnectionError, asyncio.IncompleteReadError)):
            await client.partition(huge, 0.01)
        return True

    assert run_with_service(scenario, max_body_bytes=2048)


def test_request_timeout_maps_to_504():
    async def scenario(service, client):
        async def stall(method, path, body):
            await asyncio.sleep(5.0)
            return 200, {}

        service.handle = stall
        try:
            await client._request("GET", "/healthz")
        except ServiceError as exc:
            return exc

    error = run_with_service(scenario, request_timeout_s=0.1)
    assert error.status == 504
    assert error.error_type == "Timeout"


def test_sync_client_roundtrip():
    async def scenario(service, client):
        port = service.port
        result = {}

        def blocking():
            with ServiceClient(port=port) as sync_client:
                result["partition"] = sync_client.partition(APC, 0.01, api=API)
                result["health"] = sync_client.healthz()
                result["batch"] = sync_client.partition_batch(
                    [{"apc_alone": APC, "bandwidth": 0.01}]
                )
                result["qos"] = sync_client.qos(APC, API, 0.01, [(1, 0.05)])

        await asyncio.get_running_loop().run_in_executor(None, blocking)
        return result

    result = run_with_service(scenario)
    assert result["health"]["status"] == "ok"
    assert len(result["partition"]["apc_shared"]) == 3
    assert len(result["batch"]) == 1
    assert result["qos"]["qos_apps"] == [1]


def test_graceful_stop_then_connection_refused():
    async def main():
        service = PartitionService(ServiceConfig(port=0))
        await service.start()
        port = service.port
        async with AsyncServiceClient(port=port) as client:
            await client.healthz()
        await service.stop()
        with pytest.raises((ConnectionError, OSError)):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
        return True

    assert asyncio.run(main())


def test_responses_are_json_floats_roundtrippable():
    """Shares survive a JSON round trip losslessly (repr-exact floats)."""

    async def scenario(service, client):
        return await client.partition(APC, 0.01, api=API)

    body = run_with_service(scenario)
    assert json.loads(json.dumps(body)) == body
    assert all(isinstance(x, float) for x in body["apc_shared"])
    assert np.isfinite(body["apc_shared"]).all()
