"""Client library for the partitioning-advisor service.

Two flavours over the same JSON protocol:

* :class:`ServiceClient` -- blocking, built on ``http.client``, for
  scripts and notebooks.
* :class:`AsyncServiceClient` -- asyncio streams with keep-alive, one
  in-flight request per client (open several for concurrency, as the
  load generator does).

Non-2xx responses raise :class:`ServiceError` carrying the HTTP status
and the server's structured error type/message -- plus, on a shed
(429), the server's ``Retry-After`` hint as ``retry_after_s``.  Both
clients offer ``request_with_retry`` which honours that hint with
jittered backoff, so callers get the full shed/retry contract without
hand-rolling the loop; ``deadline_ms=`` attaches the relative
``X-Deadline-Ms`` budget header the server sheds against.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time

from repro.service.shedding import DEADLINE_HEADER
from repro.util.errors import ReproError

__all__ = ["ServiceError", "ServiceClient", "AsyncServiceClient"]


class ServiceError(ReproError):
    """A non-2xx response from the advisor service."""

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        *,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"[{status} {error_type}] {message}")
        self.status = status
        self.error_type = error_type
        #: the server's backoff hint on a shed (429); None otherwise.
        #: Sourced from the JSON body's float ``retry_after_s`` when
        #: present (the Retry-After *header* is RFC-rounded to whole
        #: seconds), falling back to the header.
        self.retry_after_s = retry_after_s

    @property
    def retryable(self) -> bool:
        """Sheds are explicitly safe to retry: nothing was solved."""
        return self.status == 429

    @classmethod
    def from_response(
        cls, status: int, payload, *, retry_after: str | None = None
    ) -> "ServiceError":
        retry_s: float | None = None
        if isinstance(payload, dict) and isinstance(
            payload.get("retry_after_s"), (int, float)
        ):
            retry_s = float(payload["retry_after_s"])
        elif retry_after is not None:
            try:
                retry_s = float(retry_after)
            except ValueError:
                retry_s = None
        if isinstance(payload, dict) and isinstance(payload.get("error"), dict):
            err = payload["error"]
            return cls(
                status,
                str(err.get("type", "Error")),
                str(err.get("message", "")),
                retry_after_s=retry_s,
            )
        return cls(status, "Error", str(payload), retry_after_s=retry_s)


def _backoff_s(
    attempt: int,
    hint: float | None,
    *,
    base_s: float,
    max_s: float,
    rand,
) -> float:
    """Jittered delay before retry ``attempt`` (0-based).

    The server's Retry-After hint wins over the exponential ladder;
    either way the delay is jittered into ``[0.5, 1.0] x nominal`` so a
    herd of shed clients does not reconverge on the same instant.
    """
    nominal = hint if hint is not None else base_s * (2.0 ** attempt)
    return min(max_s, nominal) * (0.5 + 0.5 * rand())


def _partition_payload(
    apc_alone, bandwidth, scheme, api, metrics, work_conserving, profile
):
    payload = {
        "scheme": scheme,
        "apc_alone": list(apc_alone),
        "bandwidth": float(bandwidth),
    }
    if api is not None:
        payload["api"] = list(api)
    if metrics is not None:
        payload["metrics"] = list(metrics)
    if not work_conserving:
        payload["work_conserving"] = False
    if profile != "analytic":
        payload["profile"] = profile
    return payload


def _qos_payload(apc_alone, api, bandwidth, targets, objective):
    return {
        "apc_alone": list(apc_alone),
        "api": list(api),
        "bandwidth": float(bandwidth),
        "targets": [
            {"app": int(app), "ipc_target": float(ipc)} for app, ipc in targets
        ],
        "objective": objective,
    }


def _stream_open_payload(
    api, bandwidth, scheme, apc_alone, metrics, work_conserving, profile, options
):
    payload = {
        "scheme": scheme,
        "api": list(api),
        "bandwidth": float(bandwidth),
    }
    if apc_alone is not None:
        payload["apc_alone"] = list(apc_alone)
    if metrics is not None:
        payload["metrics"] = list(metrics)
    if not work_conserving:
        payload["work_conserving"] = False
    if profile != "analytic":
        payload["profile"] = profile
    payload.update(options)
    return payload


def _debug_path(section: str, params: dict) -> str:
    query = "&".join(f"{k}={v}" for k, v in sorted(params.items()) if v is not None)
    return f"/v1/debug/{section}" + (f"?{query}" if query else "")


def _counters_payload(window_cycles, accesses, interference_cycles):
    payload = {
        "window_cycles": float(window_cycles),
        "accesses": list(accesses),
    }
    if interference_cycles is not None:
        payload["interference_cycles"] = list(interference_cycles)
    return payload


class ServiceClient:
    """Blocking keep-alive client (one TCP connection, serial requests)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8737, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        deadline_ms: float | None = None,
    ):
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        if deadline_ms is not None:
            headers[DEADLINE_HEADER] = f"{deadline_ms:g}"
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # a keep-alive connection the server already closed;
                # reconnect once before giving up
                self.close()
                if attempt:
                    raise
        data = json.loads(raw.decode("utf-8")) if raw else {}
        if response.status >= 400:
            raise ServiceError.from_response(
                response.status, data, retry_after=response.getheader("Retry-After")
            )
        return data

    def request_with_retry(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        max_attempts: int = 5,
        deadline_ms: float | None = None,
        base_backoff_s: float = 0.05,
        max_backoff_s: float = 5.0,
        rand=random.random,
        sleep=time.sleep,
    ):
        """One request, retried through sheds and dropped connections.

        A 429 shed sleeps out the server's ``Retry-After`` hint
        (jittered, see :func:`_backoff_s`); connection-level failures
        take the exponential ladder.  Any other :class:`ServiceError`
        (400/422/504/...) is not retryable and raises immediately.
        After ``max_attempts`` the last error propagates.
        """
        for attempt in range(max_attempts):
            final = attempt == max_attempts - 1
            try:
                return self._request(method, path, payload, deadline_ms=deadline_ms)
            except ServiceError as exc:
                if not exc.retryable or final:
                    raise
                hint = exc.retry_after_s
            except (http.client.HTTPException, ConnectionError, OSError):
                if final:
                    raise
                hint = None
            sleep(
                _backoff_s(
                    attempt, hint,
                    base_s=base_backoff_s, max_s=max_backoff_s, rand=rand,
                )
            )
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def partition(
        self,
        apc_alone,
        bandwidth,
        *,
        scheme: str = "sqrt",
        api=None,
        metrics=None,
        work_conserving: bool = True,
        profile: str = "analytic",
        deadline_ms: float | None = None,
    ) -> dict:
        """Solve one partitioning problem; returns the response body.

        ``profile`` picks the engine: the Eq. 2 closed form
        (``analytic``), the fitted response surface (``surrogate``,
        falling back to a bounded simulation when no valid artifact is
        loaded -- check the response's ``source`` field), or the
        bounded simulation itself (``sim``).  ``deadline_ms`` sends the
        relative budget header the server sheds against (504 once it
        is spent).
        """
        return self._request(
            "POST",
            "/v1/partition",
            _partition_payload(
                apc_alone, bandwidth, scheme, api, metrics, work_conserving, profile
            ),
            deadline_ms=deadline_ms,
        )

    def partition_batch(self, requests: list[dict]) -> list[dict]:
        """Solve many problems in one call; returns the result list."""
        return self._request("POST", "/v1/partition/batch", {"requests": requests})[
            "results"
        ]

    def qos(self, apc_alone, api, bandwidth, targets, *, objective: str = "wsp") -> dict:
        """Plan a QoS-guaranteed partition.

        ``targets`` is an iterable of ``(app_index, ipc_target)`` pairs.
        """
        return self._request(
            "POST", "/v1/qos", _qos_payload(apc_alone, api, bandwidth, targets, objective)
        )

    def stream_open(
        self,
        api,
        bandwidth,
        *,
        scheme: str = "sqrt",
        apc_alone=None,
        metrics=None,
        work_conserving: bool = True,
        profile: str = "analytic",
        **options,
    ) -> dict:
        """Open a counter stream; returns the body with the session id.

        ``apc_alone`` optionally seeds the estimate before any counters
        arrive; extra keyword ``options`` pass through to the server
        (``smoothing``, ``smoothing_param``, ``change_threshold``,
        ``cooldown``).  A full server raises :class:`ServiceError` with
        status 429.
        """
        return self._request(
            "POST",
            "/v1/stream/open",
            _stream_open_payload(
                api, bandwidth, scheme, apc_alone, metrics,
                work_conserving, profile, options,
            ),
        )

    def stream_push(
        self, session: str, window_cycles, accesses, interference_cycles=None
    ) -> dict:
        """Push one epoch's counter deltas; returns the updated shares."""
        return self._request(
            "POST",
            f"/v1/stream/{session}/counters",
            _counters_payload(window_cycles, accesses, interference_cycles),
        )

    def stream_info(self, session: str) -> dict:
        return self._request("GET", f"/v1/stream/{session}")

    def stream_close(self, session: str) -> dict:
        return self._request("DELETE", f"/v1/stream/{session}")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def debug(self, section: str = "recent", **params) -> dict:
        """One ``GET /v1/debug/<section>`` (recent / slo / drift)."""
        return self._request("GET", _debug_path(section, params))

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# perfbench/serve.py, benchmarks/bench_service.py and
# examples/service_quickstart.py drive the service with this client.
class AsyncServiceClient:  # reprolint: disable=dead-code
    """Asyncio keep-alive client; serializes requests over one socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8737, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    # ------------------------------------------------------------------
    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 22
        )

    async def _roundtrip(
        self, method: str, path: str, body: bytes, extra_head: str = ""
    ):
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra_head}"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        raw = await self._reader.readexactly(length) if length else b""
        return status, headers, raw

    async def _request(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        deadline_ms: float | None = None,
    ):
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        extra_head = (
            f"{DEADLINE_HEADER}: {deadline_ms:g}\r\n"
            if deadline_ms is not None
            else ""
        )
        async with self._lock:
            for attempt in (0, 1):
                if self._reader is None:
                    await self._connect()
                try:
                    status, headers, raw = await asyncio.wait_for(
                        self._roundtrip(method, path, body, extra_head),
                        self.timeout,
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    await self.aclose()
                    if attempt:
                        raise
        data = json.loads(raw.decode("utf-8")) if raw else {}
        if status >= 400:
            raise ServiceError.from_response(
                status, data, retry_after=headers.get("retry-after")
            )
        return data

    async def request_with_retry(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        max_attempts: int = 5,
        deadline_ms: float | None = None,
        base_backoff_s: float = 0.05,
        max_backoff_s: float = 5.0,
        rand=random.random,
    ):
        """Async twin of :meth:`ServiceClient.request_with_retry`."""
        for attempt in range(max_attempts):
            final = attempt == max_attempts - 1
            try:
                return await self._request(
                    method, path, payload, deadline_ms=deadline_ms
                )
            except ServiceError as exc:
                if not exc.retryable or final:
                    raise
                hint = exc.retry_after_s
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                if final:
                    raise
                hint = None
            await asyncio.sleep(
                _backoff_s(
                    attempt, hint,
                    base_s=base_backoff_s, max_s=max_backoff_s, rand=rand,
                )
            )
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    async def partition(
        self,
        apc_alone,
        bandwidth,
        *,
        scheme: str = "sqrt",
        api=None,
        metrics=None,
        work_conserving: bool = True,
        profile: str = "analytic",
        deadline_ms: float | None = None,
    ) -> dict:
        return await self._request(
            "POST",
            "/v1/partition",
            _partition_payload(
                apc_alone, bandwidth, scheme, api, metrics, work_conserving, profile
            ),
            deadline_ms=deadline_ms,
        )

    async def partition_batch(self, requests: list[dict]) -> list[dict]:
        out = await self._request("POST", "/v1/partition/batch", {"requests": requests})
        return out["results"]

    async def qos(self, apc_alone, api, bandwidth, targets, *, objective: str = "wsp") -> dict:
        return await self._request(
            "POST", "/v1/qos", _qos_payload(apc_alone, api, bandwidth, targets, objective)
        )

    async def stream_open(
        self,
        api,
        bandwidth,
        *,
        scheme: str = "sqrt",
        apc_alone=None,
        metrics=None,
        work_conserving: bool = True,
        profile: str = "analytic",
        **options,
    ) -> dict:
        return await self._request(
            "POST",
            "/v1/stream/open",
            _stream_open_payload(
                api, bandwidth, scheme, apc_alone, metrics,
                work_conserving, profile, options,
            ),
        )

    async def stream_push(
        self, session: str, window_cycles, accesses, interference_cycles=None
    ) -> dict:
        return await self._request(
            "POST",
            f"/v1/stream/{session}/counters",
            _counters_payload(window_cycles, accesses, interference_cycles),
        )

    async def stream_info(self, session: str) -> dict:
        return await self._request("GET", f"/v1/stream/{session}")

    async def stream_close(self, session: str) -> dict:
        return await self._request("DELETE", f"/v1/stream/{session}")

    async def healthz(self) -> dict:
        return await self._request("GET", "/healthz")

    async def metrics(self) -> dict:
        return await self._request("GET", "/metrics")

    async def debug(self, section: str = "recent", **params) -> dict:
        """One ``GET /v1/debug/<section>`` (recent / slo / drift)."""
        return await self._request("GET", _debug_path(section, params))

    async def aclose(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
