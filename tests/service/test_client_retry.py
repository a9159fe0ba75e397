"""Client-side retry/backoff contract and keep-alive reuse."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    AsyncServiceClient,
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.client import _backoff_s

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


# ----------------------------------------------------------------------
# ServiceError parsing
# ----------------------------------------------------------------------
def test_retry_after_prefers_float_body_over_rounded_header():
    err = ServiceError.from_response(
        429,
        {"error": {"type": "Overloaded", "message": "busy"},
         "retry_after_s": 0.25},
        retry_after="1",
    )
    assert err.retry_after_s == 0.25
    assert err.retryable


def test_retry_after_header_fallback():
    err = ServiceError.from_response(
        429, {"error": {"type": "Overloaded", "message": "busy"}},
        retry_after="2",
    )
    assert err.retry_after_s == 2.0


def test_non_429_is_not_retryable():
    err = ServiceError.from_response(
        400, {"error": {"type": "ConfigurationError", "message": "bad"}}
    )
    assert err.retry_after_s is None
    assert not err.retryable


# ----------------------------------------------------------------------
# backoff shape
# ----------------------------------------------------------------------
def test_backoff_uses_server_hint_with_jitter():
    lo = _backoff_s(0, 1.0, base_s=0.05, max_s=5.0, rand=lambda: 0.0)
    hi = _backoff_s(0, 1.0, base_s=0.05, max_s=5.0, rand=lambda: 1.0)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.0)


def test_backoff_without_hint_is_exponential_and_capped():
    delays = [
        _backoff_s(a, None, base_s=0.1, max_s=1.0, rand=lambda: 1.0)
        for a in range(6)
    ]
    assert delays[:3] == pytest.approx([0.1, 0.2, 0.4])
    assert max(delays) == pytest.approx(1.0)  # capped, never unbounded


# ----------------------------------------------------------------------
# sync retry loop (no sockets: _request stubbed)
# ----------------------------------------------------------------------
def shed_error(retry_after_s: float) -> ServiceError:
    return ServiceError(
        429, "Overloaded", "busy", retry_after_s=retry_after_s
    )


def test_request_with_retry_sleeps_out_the_hint_then_succeeds():
    client = ServiceClient(port=1)
    outcomes = [shed_error(0.5), shed_error(0.5), {"ok": True}]
    calls = []

    def fake_request(method, path, payload=None, *, deadline_ms=None):
        calls.append((method, path, deadline_ms))
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    client._request = fake_request
    slept = []
    body = client.request_with_retry(
        "POST", "/v1/partition", {"x": 1},
        deadline_ms=200.0,
        rand=lambda: 1.0,  # jitter factor pinned to 1.0
        sleep=slept.append,
    )
    assert body == {"ok": True}
    assert len(calls) == 3
    assert all(d == 200.0 for _, _, d in calls)  # deadline re-sent each try
    assert slept == pytest.approx([0.5, 0.5])  # server hint, not the ladder


def test_request_with_retry_gives_up_after_max_attempts():
    client = ServiceClient(port=1)
    client._request = lambda *a, **k: (_ for _ in ()).throw(shed_error(0.01))
    with pytest.raises(ServiceError) as err:
        client.request_with_retry(
            "POST", "/v1/partition", {}, max_attempts=3, sleep=lambda s: None
        )
    assert err.value.status == 429


def test_request_with_retry_raises_non_retryable_immediately():
    client = ServiceClient(port=1)
    attempts = []

    def fake_request(method, path, payload=None, *, deadline_ms=None):
        attempts.append(1)
        raise ServiceError(400, "ConfigurationError", "bad request")

    client._request = fake_request
    with pytest.raises(ServiceError):
        client.request_with_retry("POST", "/v1/partition", {})
    assert len(attempts) == 1


def test_request_with_retry_retries_dropped_connections():
    client = ServiceClient(port=1)
    outcomes = [ConnectionResetError("gone"), {"ok": True}]

    def fake_request(method, path, payload=None, *, deadline_ms=None):
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    client._request = fake_request
    slept = []
    assert client.request_with_retry(
        "POST", "/v1/partition", {}, sleep=slept.append
    ) == {"ok": True}
    assert len(slept) == 1


# ----------------------------------------------------------------------
# against a live server
# ----------------------------------------------------------------------
def run_with_service(coro_factory, **config_kwargs):
    config_kwargs.setdefault("port", 0)

    async def main():
        service = PartitionService(ServiceConfig(**config_kwargs))
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.stop()

    return asyncio.run(main())


def test_sync_client_reuses_one_connection():
    """The keep-alive contract: serial requests share one TCP conn."""

    async def scenario(service):
        def calls():
            with ServiceClient(port=service.port) as client:
                client.healthz()
                conn = client._conn
                client.partition(APC, 0.01, api=API)
                client.metrics()
                assert client._conn is conn  # never reconnected

        await asyncio.to_thread(calls)
        return service.transport.open_connections

    # from the server side too: at most the one connection was open
    assert run_with_service(scenario) <= 1


def test_async_retry_rides_out_a_shed_window():
    async def scenario(service):
        released = asyncio.Event()
        backoffs = []

        def rand():
            # a backoff is starting: free the slot it waits on
            backoffs.append(1.0)
            released.set()
            return 1.0

        async def stall(method, path, body, **kwargs):
            await released.wait()
            return 200, {"stalled": True}

        async def slot_taken():
            while service._inflight != 1:
                await asyncio.sleep(0.001)

        original = service.handle
        service.handle = stall
        async with AsyncServiceClient(port=service.port) as blocker_client:
            blocker = asyncio.create_task(blocker_client.healthz())
            # occupy the single admission slot
            await asyncio.wait_for(slot_taken(), timeout=5.0)
            service.handle = original
            async with AsyncServiceClient(port=service.port) as client:
                # first attempt sheds (429), the retry lands after drain
                body = await client.request_with_retry(
                    "GET", "/healthz", max_attempts=8, rand=rand
                )
            await blocker
        return body, backoffs

    body, backoffs = run_with_service(scenario, max_inflight=1)
    assert body["status"] == "ok"
    assert backoffs  # the first attempt really was shed
