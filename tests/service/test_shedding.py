"""Deadline propagation and admission-control shedding."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    AdmissionController,
    AsyncServiceClient,
    Deadline,
    DeadlineExceeded,
    PartitionService,
    ServiceConfig,
    ServiceError,
)

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


# ----------------------------------------------------------------------
# Deadline (unit)
# ----------------------------------------------------------------------
def test_deadline_parses_header():
    d = Deadline.from_headers({"x-deadline-ms": "250"})
    assert d is not None
    assert d.budget_ms == 250
    assert 0 < d.remaining_s() <= 0.25
    assert not d.expired()


@pytest.mark.parametrize("raw", ["", "nan", "inf", "-5", "0", "soon"])
def test_malformed_deadline_is_advisory_not_an_error(raw):
    assert Deadline.from_headers({"x-deadline-ms": raw}) is None


def test_deadline_check_raises_once_spent():
    d = Deadline(5.0, now=0.0)
    d.expires_at = 0.0  # force expiry without sleeping
    assert d.expired()
    with pytest.raises(DeadlineExceeded):
        d.check("the solve started")


# ----------------------------------------------------------------------
# AdmissionController (unit)
# ----------------------------------------------------------------------
def test_admission_budget_and_release():
    adm = AdmissionController(2)
    assert adm.try_admit() and adm.try_admit()
    assert not adm.try_admit()  # budget spent
    assert adm.rejected == 1
    adm.release(0.01)
    assert adm.try_admit()  # freed slot re-admits


def test_retry_hint_tracks_latency_and_is_clamped():
    adm = AdmissionController(4)
    assert 0.05 <= adm.retry_after_s() <= 5.0
    for _ in range(50):
        adm.try_admit()
        adm.release(2.0)  # slow requests push the hint up
    slow_hint = adm.retry_after_s()
    assert slow_hint > 0.5
    assert int(adm.retry_after_header()) >= 1  # RFC 9110: whole seconds


def test_admission_controller_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        AdmissionController(0)


# ----------------------------------------------------------------------
# end-to-end over sockets
# ----------------------------------------------------------------------
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


def test_expired_deadline_sheds_with_504():
    async def scenario(service, client):
        with pytest.raises(ServiceError) as err:
            await client.partition(APC, 0.01, api=API, deadline_ms=0.0001)
        return err.value, await client.metrics()

    exc, metrics = run_with_service(scenario)
    assert exc.status == 504
    assert exc.error_type == "DeadlineExceeded"
    stats = metrics["endpoints"]["/v1/partition"]
    assert stats["sheds"] == 1
    assert stats["errors"] == 1


def test_generous_deadline_is_harmless():
    async def scenario(service, client):
        return await client.partition(APC, 0.01, api=API, deadline_ms=30_000)

    body = run_with_service(scenario)
    assert body["scheme"] == "sqrt"
    assert len(body["beta"]) == 3


def test_overload_sheds_429_with_retry_after():
    async def scenario(service, client):
        async def stall(method, path, body, **kwargs):
            await asyncio.sleep(0.4)
            return 200, {"stalled": True}

        original = service.handle
        service.handle = stall  # every admitted request now parks
        fast = AsyncServiceClient(port=service.port)
        shed_error = None
        try:
            blocker = asyncio.create_task(client.healthz())
            await asyncio.sleep(0.05)  # let it occupy the only slot
            try:
                await fast.healthz()
            except ServiceError as exc:
                shed_error = exc
            await blocker
        finally:
            service.handle = original
            await fast.aclose()
        return shed_error, await client.metrics()

    exc, metrics = run_with_service(scenario, max_inflight=1)
    assert exc is not None and exc.status == 429
    assert exc.error_type == "Overloaded"
    assert exc.retry_after_s is not None and exc.retry_after_s > 0
    assert metrics["admission"]["rejected"] >= 1
    assert metrics["admission"]["max_inflight"] == 1


def test_shed_lands_in_flight_recorder():
    async def scenario(service, client):
        with pytest.raises(ServiceError):
            await client.partition(APC, 0.01, api=API, deadline_ms=0.0001)
        return await client.debug("recent", kind="shed")

    body = run_with_service(scenario)
    assert body["counts"]["shed"] >= 1
    assert any(e["kind"] == "shed" for e in body["records"])


def test_zero_max_inflight_disables_admission():
    async def scenario(service, client):
        assert service.admission is None
        body = await client.partition(APC, 0.01, api=API)
        metrics = await client.metrics()
        return body, metrics

    body, metrics = run_with_service(scenario, max_inflight=0)
    assert body["beta"]
    assert "admission" not in metrics
