"""Service <-> repro.obs integration.

The acceptance bar: one service request produces a trace with at least
four nested spans (request -> queue_wait -> solve, plus request ->
serialize) exportable to a Perfetto-loadable Chrome trace JSON, while
``/metrics`` keeps its original field names.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.service import (
    AsyncServiceClient,
    PartitionService,
    ServiceConfig,
    ServiceError,
)
from repro.service.metrics import EndpointStats

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    obs.configure(enabled=True, sample=1.0)
    yield
    obs.reset()


def run_with_service(coro_factory, **config_kwargs):
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
# the acceptance criterion: one request, >= 4 nested spans
# ----------------------------------------------------------------------
def test_single_request_traces_four_nested_spans(tmp_path):
    async def scenario(service, client):
        return await client.partition(APC, 0.01, api=API)

    run_with_service(scenario)
    spans = obs.tracer().spans()
    by = {}
    for s in spans:
        by.setdefault(s.name, s)

    request = by["service.request"]
    queue_wait = by["service.queue_wait"]
    solve = by["service.solve"]
    serialize = by["service.serialize"]

    # request -> queue_wait -> solve; request -> serialize
    assert request.parent_id is None
    assert queue_wait.parent_id == request.span_id
    assert solve.parent_id == queue_wait.span_id
    assert serialize.parent_id == request.span_id
    assert solve.attrs["batched"] is True

    # ...and the chain exports to a loadable Chrome trace file
    path = tmp_path / "service.trace.json"
    obs.write_chrome_trace(path, spans)
    doc = json.loads(path.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {
        "service.request",
        "service.queue_wait",
        "service.solve",
        "service.serialize",
    } <= names


def test_unbatched_solve_nests_directly_under_request():
    async def scenario(service, client):
        return await client.partition(APC, 0.01, api=API)

    run_with_service(scenario, batching=False)
    by = {s.name: s for s in obs.tracer().spans()}
    assert "service.queue_wait" not in by
    assert by["service.solve"].parent_id == by["service.request"].span_id
    assert by["service.solve"].attrs["batched"] is False


# ----------------------------------------------------------------------
# /metrics stays backward compatible and gains the registry view
# ----------------------------------------------------------------------
def test_metrics_keeps_field_names_and_adds_obs_section():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        return await client.metrics()

    body = run_with_service(scenario)
    # original shape untouched
    endpoint = body["endpoints"]["/v1/partition"]
    assert endpoint["requests"] == 1
    for key in ("p50", "p90", "p99", "mean", "max", "window"):
        assert key in endpoint["latency_ms"]
    assert set(body["cache"]) >= {"hits", "misses", "puts"}
    assert "batches" in body["batching"]
    # additive registry snapshot
    reqs = body["obs"]["service.requests"]
    assert reqs["kind"] == "counter"
    assert reqs["series"][0]["labels"] == {"path": "/v1/partition"}
    assert reqs["series"][0]["value"] == 1.0


def test_registry_mirrors_service_counters():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        await client.partition(APC, 0.01, api=API)
        return None

    run_with_service(scenario)
    reg = obs.registry()
    assert reg.get_value("service.requests", path="/v1/partition") == 2.0
    assert reg.get_value("cache.hits", cache="service") == 1.0
    assert reg.get_value("cache.misses", cache="service") == 1.0


def test_path_labels_bucket_as_other_past_cap():
    metrics_registry = obs.MetricsRegistry()
    from repro.service.metrics import ServiceMetrics

    m = ServiceMetrics(registry=metrics_registry)
    for i in range(40):
        m.observe_request(f"/p{i}", 1.0)
    # the registry label space stays bounded ...
    labels = {
        labels_["path"]
        for name, _, labels_, _ in metrics_registry.series()
        if name == "service.requests"
    }
    assert "other" in labels
    assert metrics_registry.get_value("service.requests", path="other") == 24.0
    # ... and the per-endpoint stats are keyed by the same labels
    assert set(m.endpoints) == labels
    assert len(m.endpoints) == 17
    assert m.endpoints["other"].requests == 24


def test_endpoints_section_is_keyed_by_bounded_route_labels():
    sessions = []

    async def scenario(service, client):
        for _ in range(5):
            opened = await client.stream_open(API, 0.01, apc_alone=APC)
            sid = opened["session"]
            sessions.append(sid)
            await client.stream_push(sid, 1_000_000.0, [4000, 7000, 2000])
            await client.stream_push(sid, 1_000_000.0, [4500, 7000, 2000])
            await client.stream_close(sid)
        await client.debug("recent", limit=1)
        for i in range(40):
            with pytest.raises(ServiceError):
                await client._request("GET", f"/nope/{i}?q={i}")
        return await client.metrics()

    endpoints = run_with_service(scenario)["endpoints"]
    # pushes count under the route template, never per session id
    assert endpoints["/v1/stream/{id}/counters"]["requests"] == 10
    assert endpoints["/v1/stream/{id}"]["requests"] == 5
    assert endpoints["/v1/stream/open"]["requests"] == 5
    # the query string is not part of the label
    assert endpoints["/v1/debug/recent"]["requests"] == 1
    assert not [p for p in endpoints if "?" in p]
    assert not [p for p in endpoints for sid in sessions if sid in p]
    # 16 labels at most for unknown paths, then everything else is "other"
    from repro.service.metrics import ROUTE_LABELS

    assert len([p for p in endpoints if p not in ROUTE_LABELS]) <= 17
    assert endpoints["other"]["requests"] >= 40 - 16


def test_every_route_keeps_its_label_past_the_unknown_path_cap():
    """Unknown paths take their 16 labels first; every route the server
    answers still counts under its own label, never as ``other``."""
    routes = {
        "/healthz": 1,
        "/metrics": 1,
        "/v1/partition": 1,
        "/v1/partition/batch": 1,
        "/v1/qos": 1,
        "/v1/surrogate/reload": 1,
        "/v1/debug/recent": 1,
        "/v1/debug/slo": 1,
        "/v1/debug/drift": 1,
        "/v1/stream/open": 1,
        "/v1/stream/{id}": 2,
        "/v1/stream/{id}/counters": 1,
    }

    async def scenario(service, client):
        for i in range(16):
            with pytest.raises(ServiceError):
                await client._request("GET", f"/scan{i}")
        await client.healthz()
        await client.metrics()
        await client.partition(APC, 0.01, api=API)
        await client.partition_batch(
            [{"apc_alone": APC, "bandwidth": 0.01, "api": API}]
        )
        await client.qos(APC, API, 0.01, [(0, 0.1)])
        try:
            await client._request("POST", "/v1/surrogate/reload")
        except ServiceError:
            pass  # no artifact configured: an error still has a route
        for section in ("recent", "slo", "drift"):
            await client.debug(section)
        sid = (await client.stream_open(API, 0.01, apc_alone=APC))["session"]
        await client.stream_push(sid, 1_000_000.0, [4000, 7000, 2000])
        await client.stream_info(sid)
        await client.stream_close(sid)
        return await client.metrics()

    body = run_with_service(scenario)
    endpoints = body["endpoints"]
    series = {
        s["labels"]["path"]: s["value"]
        for s in body["obs"]["service.requests"]["series"]
    }
    for route, n in routes.items():
        assert endpoints.get(route, {}).get("requests") == n, route
        assert series.get(route) == float(n), route
    scans = {f"/scan{i}" for i in range(16)}
    assert set(endpoints) - set(routes) == scans
    assert set(series) - set(routes) == scans

    from repro.service.metrics import ROUTE_LABELS

    assert ROUTE_LABELS == set(routes)


# ----------------------------------------------------------------------
# satellite: timeout implies an error exactly once
# ----------------------------------------------------------------------
class TestEndpointStatsTimeout:
    def test_timeout_alone_counts_one_error(self):
        stats = EndpointStats()
        stats.observe(5.0, timeout=True)
        assert stats.timeouts == 1
        assert stats.errors == 1

    def test_timeout_plus_error_flag_still_counts_once(self):
        stats = EndpointStats()
        stats.observe(5.0, error=True, timeout=True)
        assert stats.timeouts == 1
        assert stats.errors == 1

    def test_plain_error_does_not_count_a_timeout(self):
        stats = EndpointStats()
        stats.observe(5.0, error=True)
        assert stats.timeouts == 0
        assert stats.errors == 1

    def test_success_counts_neither(self):
        stats = EndpointStats()
        stats.observe(5.0)
        assert stats.requests == 1
        assert stats.errors == 0
        assert stats.timeouts == 0
