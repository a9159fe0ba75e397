"""Request validation: malformed payloads become typed errors, never NaNs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.protocol import (
    error_body,
    parse_partition_request,
    parse_qos_request,
)
from repro.util.errors import ConfigurationError

GOOD = {
    "scheme": "sqrt",
    "apc_alone": [0.004, 0.007, 0.002],
    "api": [0.03, 0.04, 0.01],
    "bandwidth": 0.01,
}


class TestPartitionParsing:
    def test_good_request_roundtrip(self):
        req = parse_partition_request(GOOD)
        assert req.scheme == "sqrt"
        assert req.n_apps == 3
        assert req.metrics == ("hsp", "minf", "wsp", "ipcsum")
        assert req.work_conserving

    def test_scheme_defaults_to_sqrt(self):
        req = parse_partition_request({"apc_alone": [0.01], "bandwidth": 0.005})
        assert req.scheme == "sqrt"

    def test_metrics_default_empty_without_api(self):
        req = parse_partition_request({"apc_alone": [0.01], "bandwidth": 0.005})
        assert req.metrics == ()

    @pytest.mark.parametrize(
        "mutation",
        [
            {"scheme": "bogus"},
            {"apc_alone": []},
            {"apc_alone": "nope"},
            {"apc_alone": [0.1, "x"]},
            {"apc_alone": [0.1, -0.2]},
            {"apc_alone": [0.1, float("nan")]},
            {"api": [0.1]},  # length mismatch
            {"bandwidth": 0},
            {"bandwidth": -1},
            {"bandwidth": "much"},
            {"metrics": ["hsp", "nope"]},
            {"metrics": "hsp"},
            {"work_conserving": "yes"},
            {"surprise": 1},
        ],
    )
    def test_bad_requests_raise_configuration_error(self, mutation):
        payload = dict(GOOD, **mutation)
        with pytest.raises(ConfigurationError):
            parse_partition_request(payload)

    def test_non_dict_body_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_partition_request([1, 2, 3])

    def test_metrics_without_api_rejected(self):
        with pytest.raises(ConfigurationError, match="api"):
            parse_partition_request(
                {"apc_alone": [0.01], "bandwidth": 0.005, "metrics": ["hsp"]}
            )

    def test_prio_api_requires_api(self):
        with pytest.raises(ConfigurationError, match="prio_api"):
            parse_partition_request(
                {"scheme": "prio_api", "apc_alone": [0.01], "bandwidth": 0.005}
            )

    def test_cache_key_semantic_equality(self):
        a = parse_partition_request(GOOD)
        b = parse_partition_request(
            {  # same meaning, different field order / explicit defaults
                "bandwidth": 0.01,
                "api": [0.03, 0.04, 0.01],
                "apc_alone": [0.004, 0.007, 0.002],
                "scheme": "sqrt",
                "work_conserving": True,
            }
        )
        assert a.cache_key() == b.cache_key()
        c = parse_partition_request(dict(GOOD, bandwidth=0.02))
        assert a.cache_key() != c.cache_key()


QOS_GOOD = {
    "apc_alone": [0.004, 0.007, 0.002],
    "api": [0.03, 0.04, 0.01],
    "bandwidth": 0.01,
    "targets": [{"app": 0, "ipc_target": 0.05}],
}


class TestQoSParsing:
    def test_good_request_roundtrip(self):
        req = parse_qos_request(QOS_GOOD)
        assert req.objective == "wsp"
        assert np.isnan(req.ipc_targets[1])
        assert req.ipc_targets[0] == 0.05

    @pytest.mark.parametrize(
        "mutation",
        [
            {"api": None},
            {"targets": []},
            {"targets": [{"app": 3, "ipc_target": 0.1}]},  # out of range
            {"targets": [{"app": 0}]},
            {"targets": [{"app": "zero", "ipc_target": 0.1}]},
            {"targets": [{"app": True, "ipc_target": 0.1}]},
            {"targets": [{"app": 0, "ipc_target": -0.1}]},
            {
                "targets": [
                    {"app": 0, "ipc_target": 0.1},
                    {"app": 0, "ipc_target": 0.2},
                ]
            },
            {"objective": "speed"},
            {"extra": 1},
        ],
    )
    def test_bad_requests_raise_configuration_error(self, mutation):
        payload = dict(QOS_GOOD, **mutation)
        with pytest.raises(ConfigurationError):
            parse_qos_request(payload)

    def test_cache_key_ignores_target_order(self):
        two = dict(
            QOS_GOOD,
            targets=[
                {"app": 0, "ipc_target": 0.05},
                {"app": 2, "ipc_target": 0.1},
            ],
        )
        swapped = dict(
            QOS_GOOD,
            targets=[
                {"app": 2, "ipc_target": 0.1},
                {"app": 0, "ipc_target": 0.05},
            ],
        )
        assert parse_qos_request(two).cache_key() == parse_qos_request(swapped).cache_key()


# Cache keys address the disk cache and the cross-worker shared cache,
# which workers on different versions may read; they must never move.
PARTITION_GOLDEN_KEYS = [
    (GOOD, "1740a0e8b26a98156439ef9afa7402425bac191f48ddd55fade3649d735fc6ff"),
    (
        {
            "scheme": "prio_api",
            "apc_alone": [0.004, 0.009, 0.002, 0.006],
            "api": [0.03, 0.05, 0.01, 0.02],
            "bandwidth": 1,
            "metrics": ["wsp", "hsp"],
            "profile": "surrogate",
        },
        "d398baa8e148382d1ed803d43602c70e843b7c5e355ac6d8af503c3e9b17a591",
    ),
]

QOS_GOLDEN_KEYS = [
    (QOS_GOOD, "4dd071efc90190f86782a19a02e5ab4a838832fab1e0effbe70b933a69a83301"),
    (
        dict(
            QOS_GOOD,
            targets=[
                {"app": 2, "ipc_target": 0.1},
                {"app": 0, "ipc_target": 0.05},
            ],
            objective="hsp",
        ),
        "c03d1b0104d52a5cb58f75387bbe3befa367926465e8567a9864cedf388e0690",
    ),
]


@pytest.mark.parametrize("payload, digest", PARTITION_GOLDEN_KEYS)
def test_partition_cache_key_is_pinned(payload, digest):
    assert parse_partition_request(payload).cache_key() == digest


@pytest.mark.parametrize("payload, digest", QOS_GOLDEN_KEYS)
def test_qos_cache_key_is_pinned(payload, digest):
    assert parse_qos_request(payload).cache_key() == digest


def test_error_body_shape():
    body = error_body("ConfigurationError", "boom")
    assert body == {"error": {"type": "ConfigurationError", "message": "boom"}}
