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
from repro.service import AsyncServiceClient, PartitionService, ServiceConfig
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
    # exact per-path stats keep every path ...
    assert len(m.endpoints) == 40
    # ... the registry label space stays bounded
    labels = {
        labels_["path"]
        for name, _, labels_, _ in metrics_registry.series()
        if name == "service.requests"
    }
    assert "other" in labels
    assert metrics_registry.get_value("service.requests", path="other") == 24.0


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
