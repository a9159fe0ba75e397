"""Wire protocol: request parsing, validation, response building.

All endpoints speak JSON.  Parsing converts untrusted payloads into
frozen request dataclasses, raising
:class:`~repro.util.errors.ConfigurationError` (mapped to HTTP 400) on
malformed input and :class:`~repro.util.errors.InfeasibleError`
(HTTP 422) on well-formed but unsatisfiable problems, so clients get a
structured ``{"error": {"type": ..., "message": ...}}`` body instead
of a stack trace or a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bandwidth import pairwise_sum
from repro.core.batch import BATCH_SCHEMES
from repro.core.metrics import metric_by_name
from repro.util.cache import config_digest
from repro.util.errors import ConfigurationError, InfeasibleError

__all__ = [
    "PartitionRequest",
    "QoSRequest",
    "StreamOpenRequest",
    "parse_partition_request",
    "parse_qos_request",
    "parse_stream_open",
    "parse_counter_push",
    "partition_response",
    "qos_response",
    "error_body",
]

#: metric short names a partition request may ask for
KNOWN_METRICS: tuple[str, ...] = ("hsp", "minf", "wsp", "ipcsum")

#: solve profiles /v1/partition accepts: the Eq. 2 closed form, the
#: fitted response surface, or a bounded-window cycle-level simulation
PROFILES: tuple[str, ...] = ("analytic", "surrogate", "sim")

#: best-effort objectives /v1/qos accepts
QOS_OBJECTIVES: tuple[str, ...] = ("hsp", "minf", "wsp", "ipcsum")

#: estimate filters a stream session may pick (repro.control.smoothing)
STREAM_SMOOTHERS: tuple[str, ...] = ("ema", "window")


def _float_vector(name: str, raw, *, expect_len: int | None = None) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigurationError(f"{name} must be a non-empty array of numbers")
    try:
        vec = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must contain only numbers") from None
    if not all(map(math.isfinite, vec)):
        raise ConfigurationError(f"{name} must be finite")
    if any(v <= 0 for v in vec):
        raise ConfigurationError(f"{name} values must be > 0")
    if expect_len is not None and len(vec) != expect_len:
        raise ConfigurationError(
            f"{name} must have length {expect_len}, got {len(vec)}"
        )
    return vec


def _nonneg_vector(name: str, raw, *, expect_len: int) -> tuple[float, ...]:
    """Like :func:`_float_vector` but zeros are legal (idle-app deltas)."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigurationError(f"{name} must be a non-empty array of numbers")
    try:
        vec = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must contain only numbers") from None
    if not all(map(math.isfinite, vec)):
        raise ConfigurationError(f"{name} must be finite")
    if any(v < 0 for v in vec):
        raise ConfigurationError(f"{name} values must be >= 0")
    if len(vec) != expect_len:
        raise ConfigurationError(
            f"{name} must have length {expect_len}, got {len(vec)}"
        )
    return vec


def _positive_float(name: str, raw) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number") from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a finite number > 0")
    return value


@dataclass(frozen=True)
class PartitionRequest:
    """A validated single-solve request for ``/v1/partition``."""

    scheme: str
    apc_alone: tuple[float, ...]
    api: tuple[float, ...] | None
    bandwidth: float
    metrics: tuple[str, ...]
    work_conserving: bool = True
    profile: str = "analytic"

    @property
    def n_apps(self) -> int:
        return len(self.apc_alone)

    @property
    def group_key(self) -> tuple:
        """Requests sharing this key can be stacked into one solve."""
        return (
            "partition",
            self.profile,
            self.scheme,
            self.n_apps,
            self.work_conserving,
        )

    def cache_key(self) -> str:
        return config_digest(
            "service/v1/partition",
            {
                "scheme": self.scheme,
                "apc_alone": list(self.apc_alone),
                "api": list(self.api) if self.api is not None else None,
                "bandwidth": self.bandwidth,
                "metrics": sorted(self.metrics),
                "work_conserving": self.work_conserving,
                "profile": self.profile,
            },
        )


@dataclass(frozen=True)
class QoSRequest:
    """A validated request for ``/v1/qos``.

    ``ipc_targets`` is dense over the workload with NaN marking
    best-effort apps, matching :func:`repro.core.batch.batch_qos_plan`.
    """

    apc_alone: tuple[float, ...]
    api: tuple[float, ...]
    bandwidth: float
    ipc_targets: tuple[float, ...]
    objective: str = "wsp"

    @property
    def n_apps(self) -> int:
        return len(self.apc_alone)

    @property
    def group_key(self) -> tuple:
        return ("qos", self.objective, self.n_apps)

    def cache_key(self) -> str:
        return config_digest(
            "service/v1/qos",
            {
                "apc_alone": list(self.apc_alone),
                "api": list(self.api),
                "bandwidth": self.bandwidth,
                # NaN is not JSON-canonical; encode targets as a mask+values
                "targets": [
                    [i, t]
                    for i, t in enumerate(self.ipc_targets)
                    if not math.isnan(t)
                ],
                "objective": self.objective,
            },
        )


def parse_partition_request(obj) -> PartitionRequest:
    """Validate one ``/v1/partition`` JSON object."""
    if not isinstance(obj, dict):
        raise ConfigurationError("request body must be a JSON object")
    unknown = set(obj) - {
        "scheme",
        "apc_alone",
        "api",
        "bandwidth",
        "metrics",
        "work_conserving",
        "profile",
    }
    if unknown:
        raise ConfigurationError(f"unknown fields: {sorted(unknown)}")

    profile = obj.get("profile", "analytic")
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
        )
    scheme = obj.get("scheme", "sqrt")
    if scheme not in BATCH_SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {sorted(BATCH_SCHEMES)}"
        )
    apc_alone = _float_vector("apc_alone", obj.get("apc_alone"))
    api_raw = obj.get("api")
    api = (
        _float_vector("api", api_raw, expect_len=len(apc_alone))
        if api_raw is not None
        else None
    )
    bandwidth = _positive_float("bandwidth", obj.get("bandwidth"))
    work_conserving = obj.get("work_conserving", True)
    if not isinstance(work_conserving, bool):
        raise ConfigurationError("work_conserving must be a boolean")
    if profile != "analytic" and not work_conserving:
        raise ConfigurationError(
            f"profile {profile!r} is work-conserving only: the cycle-level "
            "bus (and the response surface fitted to it) never idles on "
            "backlog; use the analytic profile for non-work-conserving solves"
        )

    metrics_raw = obj.get("metrics")
    if metrics_raw is None:
        metrics: tuple[str, ...] = KNOWN_METRICS if api is not None else ()
    else:
        if not isinstance(metrics_raw, (list, tuple)):
            raise ConfigurationError("metrics must be an array of metric names")
        metrics = tuple(dict.fromkeys(metrics_raw))  # dedupe, keep order
        for m in metrics:
            if m not in KNOWN_METRICS:
                raise ConfigurationError(
                    f"unknown metric {m!r}; available: {sorted(KNOWN_METRICS)}"
                )
    if api is None and metrics:
        raise ConfigurationError("metrics need the api vector (IPC = APC / API)")
    if api is None and scheme == "prio_api":
        raise ConfigurationError("scheme 'prio_api' needs the api vector")

    return PartitionRequest(
        scheme=scheme,
        apc_alone=apc_alone,
        api=api,
        bandwidth=bandwidth,
        metrics=metrics,
        work_conserving=work_conserving,
        profile=profile,
    )


def parse_qos_request(obj) -> QoSRequest:
    """Validate one ``/v1/qos`` JSON object."""
    if not isinstance(obj, dict):
        raise ConfigurationError("request body must be a JSON object")
    unknown = set(obj) - {"apc_alone", "api", "bandwidth", "targets", "objective"}
    if unknown:
        raise ConfigurationError(f"unknown fields: {sorted(unknown)}")

    apc_alone = _float_vector("apc_alone", obj.get("apc_alone"))
    api = _float_vector("api", obj.get("api"), expect_len=len(apc_alone))
    bandwidth = _positive_float("bandwidth", obj.get("bandwidth"))
    objective = obj.get("objective", "wsp")
    if objective not in QOS_OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}; available: {sorted(QOS_OBJECTIVES)}"
        )

    targets_raw = obj.get("targets")
    if not isinstance(targets_raw, (list, tuple)) or not targets_raw:
        raise ConfigurationError(
            "targets must be a non-empty array of {app, ipc_target} objects"
        )
    ipc_targets = [float("nan")] * len(apc_alone)
    for t in targets_raw:
        if not isinstance(t, dict) or set(t) != {"app", "ipc_target"}:
            raise ConfigurationError(
                "each target must be an object with fields 'app' and 'ipc_target'"
            )
        app = t["app"]
        if not isinstance(app, int) or isinstance(app, bool):
            raise ConfigurationError("target 'app' must be an integer app index")
        if not (0 <= app < len(apc_alone)):
            raise ConfigurationError(
                f"target app index {app} out of range [0, {len(apc_alone)})"
            )
        if not math.isnan(ipc_targets[app]):
            raise ConfigurationError(f"duplicate target for app {app}")
        ipc_targets[app] = _positive_float("ipc_target", t["ipc_target"])
    return QoSRequest(
        apc_alone=apc_alone,
        api=api,
        bandwidth=bandwidth,
        ipc_targets=tuple(ipc_targets),
        objective=objective,
    )


@dataclass(frozen=True)
class StreamOpenRequest:
    """A validated ``/v1/stream/open`` body: the session's fixed config.

    Everything a :class:`PartitionRequest` needs *except* ``apc_alone``
    -- that is what the stream measures online.  ``prior`` optionally
    seeds estimate slots no epoch has covered yet (the first pushes of
    a session, or apps idle so far).
    """

    scheme: str
    api: tuple[float, ...]
    bandwidth: float
    metrics: tuple[str, ...]
    work_conserving: bool
    profile: str
    prior: tuple[float, ...] | None
    smoothing: str
    smoothing_param: float | None
    change_threshold: float
    cooldown: int

    @property
    def n_apps(self) -> int:
        return len(self.api)


def parse_stream_open(obj) -> StreamOpenRequest:
    """Validate one ``/v1/stream/open`` JSON object."""
    if not isinstance(obj, dict):
        raise ConfigurationError("request body must be a JSON object")
    unknown = set(obj) - {
        "scheme",
        "api",
        "bandwidth",
        "metrics",
        "work_conserving",
        "profile",
        "apc_alone",
        "smoothing",
        "smoothing_param",
        "change_threshold",
        "cooldown",
    }
    if unknown:
        raise ConfigurationError(f"unknown fields: {sorted(unknown)}")

    scheme = obj.get("scheme", "sqrt")
    if scheme not in BATCH_SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {sorted(BATCH_SCHEMES)}"
        )
    api = _float_vector("api", obj.get("api"))
    bandwidth = _positive_float("bandwidth", obj.get("bandwidth"))
    prior_raw = obj.get("apc_alone")
    prior = (
        _float_vector("apc_alone", prior_raw, expect_len=len(api))
        if prior_raw is not None
        else None
    )
    profile = obj.get("profile", "analytic")
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
        )
    work_conserving = obj.get("work_conserving", True)
    if not isinstance(work_conserving, bool):
        raise ConfigurationError("work_conserving must be a boolean")
    if profile != "analytic" and not work_conserving:
        raise ConfigurationError(
            f"profile {profile!r} is work-conserving only; use the analytic "
            "profile for non-work-conserving streams"
        )
    metrics_raw = obj.get("metrics")
    if metrics_raw is None:
        metrics: tuple[str, ...] = KNOWN_METRICS
    else:
        if not isinstance(metrics_raw, (list, tuple)):
            raise ConfigurationError("metrics must be an array of metric names")
        metrics = tuple(dict.fromkeys(metrics_raw))
        for m in metrics:
            if m not in KNOWN_METRICS:
                raise ConfigurationError(
                    f"unknown metric {m!r}; available: {sorted(KNOWN_METRICS)}"
                )
    smoothing = obj.get("smoothing", "ema")
    if smoothing not in STREAM_SMOOTHERS:
        raise ConfigurationError(
            f"unknown smoothing {smoothing!r}; available: "
            f"{sorted(STREAM_SMOOTHERS)}"
        )
    param_raw = obj.get("smoothing_param")
    smoothing_param = (
        _positive_float("smoothing_param", param_raw)
        if param_raw is not None
        else None
    )
    change_threshold = _positive_float(
        "change_threshold", obj.get("change_threshold", 0.5)
    )
    cooldown = obj.get("cooldown", 1)
    if not isinstance(cooldown, int) or isinstance(cooldown, bool) or cooldown < 0:
        raise ConfigurationError("cooldown must be a non-negative integer")
    return StreamOpenRequest(
        scheme=scheme,
        api=api,
        bandwidth=bandwidth,
        metrics=metrics,
        work_conserving=work_conserving,
        profile=profile,
        prior=prior,
        smoothing=smoothing,
        smoothing_param=smoothing_param,
        change_threshold=change_threshold,
        cooldown=cooldown,
    )


def parse_counter_push(
    obj, n_apps: int
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Validate one ``/v1/stream/<id>/counters`` body.

    Returns ``(window_cycles, accesses, interference_cycles)`` -- the
    paper's three per-epoch counter deltas.  A zero ``window_cycles``
    is legal (the session records a degenerate epoch); per-app
    interference may not exceed the window.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError("request body must be a JSON object")
    unknown = set(obj) - {"window_cycles", "accesses", "interference_cycles"}
    if unknown:
        raise ConfigurationError(f"unknown fields: {sorted(unknown)}")
    try:
        window = float(obj.get("window_cycles"))
    except (TypeError, ValueError):
        raise ConfigurationError("window_cycles must be a number") from None
    if not math.isfinite(window) or window < 0:
        raise ConfigurationError("window_cycles must be a finite number >= 0")
    accesses = _nonneg_vector("accesses", obj.get("accesses"), expect_len=n_apps)
    interference_raw = obj.get("interference_cycles")
    if interference_raw is None:
        interference = (0.0,) * n_apps
    else:
        interference = _nonneg_vector(
            "interference_cycles", interference_raw, expect_len=n_apps
        )
        if any(v > window for v in interference):
            raise ConfigurationError(
                "interference_cycles cannot exceed window_cycles"
            )
    return window, accesses, interference


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def partition_response(
    req: PartitionRequest,
    apc_shared: np.ndarray | Sequence[float],
    *,
    cached: bool = False,
    batch_size: int = 1,
    source: str | None = None,
) -> dict:
    """Build the ``/v1/partition`` response for one solved allocation.

    Metric values are computed here with the scalar
    :class:`~repro.core.metrics.Metric` classes, so they are identical
    whether the allocation came from the micro-batched or the naive
    path.  ``source`` names the engine that actually produced the
    allocation (``analytic`` / ``surrogate`` / ``sim``) -- it differs
    from ``req.profile`` when a surrogate request fell back to the
    simulator.  Everything is computed on Python floats, with the sums
    and divisions of the numpy expressions it replaced.
    """
    apc = _floats(apc_shared)
    total = pairwise_sum(apc)
    body = {
        "scheme": req.scheme,
        "bandwidth": req.bandwidth,
        "apc_shared": apc,
        "beta": [x / total for x in apc] if total > 0 else [0.0] * len(apc),
        "utilized_bandwidth": total,
        "profile": req.profile,
        "source": source if source is not None else req.profile,
        "cached": cached,
        "batch_size": batch_size,
    }
    if req.api is not None:
        ipc_shared = [x / p for x, p in zip(apc, req.api)]
        ipc_alone = [a / p for a, p in zip(req.apc_alone, req.api)]
        body["ipc_shared"] = ipc_shared
        body["metrics"] = {
            name: metric_by_name(name).evaluate(ipc_shared, ipc_alone)
            for name in req.metrics
        }
    return body


def qos_response(
    req: QoSRequest,
    plan_row: dict,
    *,
    cached: bool = False,
    batch_size: int = 1,
) -> dict:
    """Build the ``/v1/qos`` response from one row of a stacked plan.

    Raises
    ------
    InfeasibleError
        If the row is marked infeasible (targets exceed standalone IPC
        or reservations exceed the bandwidth).
    """
    if not plan_row["feasible"]:
        raise InfeasibleError(
            "QoS targets are infeasible: a target exceeds the app's "
            "standalone IPC or the reservations exceed the total bandwidth"
        )
    apc = _floats(plan_row["apc_shared"])
    return {
        "objective": req.objective,
        "bandwidth": req.bandwidth,
        "apc_shared": apc,
        "ipc_shared": [x / p for x, p in zip(apc, req.api)],
        "b_qos": float(plan_row["b_qos"]),
        "b_best_effort": float(plan_row["b_best_effort"]),
        "qos_apps": [i for i, on in enumerate(_floats(plan_row["qos_mask"])) if on],
        "cached": cached,
        "batch_size": batch_size,
    }


def _floats(row: np.ndarray | Sequence) -> list:
    """A solved row (array or sequence) as a list of Python scalars."""
    return row.tolist() if isinstance(row, np.ndarray) else list(row)


def error_body(exc_type: str, message: str) -> dict:
    """The structured error payload every non-2xx response carries."""
    return {"error": {"type": exc_type, "message": message}}
