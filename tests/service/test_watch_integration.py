"""End-to-end watch layer: SLOs, drift drill, debug surface, repro-top.

The drill at the heart of this file is ISSUE 8's acceptance scenario:
serve a *perturbed* surrogate artifact (passing card, wrong
coefficients) under shadow-sampled load, watch the online MAPE breach
the gate, and verify the service flips ``degraded`` and auto-routes
surrogate solves to the sim path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import PartitionService, ServiceConfig, ServiceError
from repro.service.metrics import EndpointStats, ServiceMetrics
from repro.surrogate.artifact import SurrogateModel, save_model
from repro.surrogate.fit import DEFAULT_TERMS, QualityThresholds, SchemeFit

from tests.service.test_server import run_with_service
from tests.surrogate.conftest import FAKE_DIGEST, make_model

APC = [0.004, 0.007, 0.002]
API = [0.03, 0.04, 0.01]


def make_drifted_model(schemes: tuple[str, ...] = ("sqrt",)) -> SurrogateModel:
    """A loadable artifact that predicts *half* the true surface.

    The stored card still claims fit-time quality (r2=0.999, mape=0.01)
    -- artifact gating trusts the card, which is exactly the blind spot
    the online shadow monitor exists to close.
    """
    coef = tuple(0.5 if term == "min_xg" else 0.0 for term in DEFAULT_TERMS)
    fits = {
        s: SchemeFit(
            scheme=s, terms=DEFAULT_TERMS, coef=coef, r2=0.999, mape=0.01,
            n_train=96, n_test=24, ridge=False,
        )
        for s in schemes
    }
    return SurrogateModel(
        sweep_digest=FAKE_DIGEST,
        fits=fits,
        thresholds=QualityThresholds(),
        defaults={"row_locality": 0.6, "bank_frac": 0.9},
        settings={"preset": "test"},
    )


# ----------------------------------------------------------------------
# satellite: shed accounting counts each flag exactly once
# ----------------------------------------------------------------------
class TestShedAccounting:
    def test_shed_alone(self):
        stats = EndpointStats()
        stats.observe(1.0, shed=True)
        assert (stats.requests, stats.sheds, stats.errors) == (1, 1, 1)
        assert stats.timeouts == 0

    def test_all_flags_count_once_each(self):
        stats = EndpointStats()
        stats.observe(1.0, error=True, timeout=True, shed=True)
        assert stats.requests == 1
        assert stats.errors == 1  # regression: never double-counted
        assert stats.timeouts == 1
        assert stats.sheds == 1
        assert stats.snapshot()["sheds"] == 1

    def test_registry_mirrors_sheds_once(self):
        from repro import obs

        m = ServiceMetrics(registry=obs.MetricsRegistry())
        m.observe_request("/v1/stream/open", 1.0, shed=True)
        reg = m.registry
        assert reg.get_value("service.sheds", path="/v1/stream/open") == 1.0
        assert reg.get_value("service.errors", path="/v1/stream/open") == 1.0
        assert reg.get_value("service.requests", path="/v1/stream/open") == 1.0


# ----------------------------------------------------------------------
# satellite: process / build info on /metrics
# ----------------------------------------------------------------------
def test_metrics_exposes_process_and_build_info():
    async def scenario(service, client):
        return await client.metrics()

    body = run_with_service(scenario)
    process = body["process"]
    assert process["pid"] > 0
    assert process["start_time_unix"] > 0
    assert process["uptime_s"] >= 0
    assert process["version"]  # from repro.__version__
    assert "revision" in process
    assert len(process["config_digest"]) == 16


def test_build_info_is_a_prometheus_info_gauge():
    from repro import obs

    m = ServiceMetrics(registry=obs.MetricsRegistry())
    m.set_build_info(version="1.2.3", revision="abc", config_digest="d1")
    labels = {"config_digest": "d1", "revision": "abc", "version": "1.2.3"}
    assert m.registry.get_value("process.build_info", **labels) == 1.0
    assert "process.start_time_unix" in m.registry.snapshot()


# ----------------------------------------------------------------------
# /metrics watch sections + debug surface
# ----------------------------------------------------------------------
def test_metrics_gains_watch_sections():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        return await client.metrics()

    body = run_with_service(scenario)
    assert body["alerts"] == {"paging": 0, "warning": 0, "page": [], "warn": []}
    names = {s["name"] for s in body["slo"]}
    assert "partition.availability" in names
    assert body["drift"]["degraded"] is False
    assert body["drift"]["shadow"]["rate"] == 0.05
    assert body["controller"]["sessions"] == 0


def test_debug_recent_records_slow_requests():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        full = await client.debug("recent")
        limited = await client.debug("recent", limit=1, kind="slow")
        return full, limited

    # a sub-microsecond threshold flags every request as slow
    full, limited = run_with_service(scenario, slow_request_ms=1e-6)
    assert full["counts"]["slow"] >= 1
    rec = full["records"][0]
    assert rec["kind"] == "slow"
    assert rec["path"] == "/v1/partition"
    assert rec["detail"]["threshold_ms"] == 1e-6
    assert len(limited["records"]) == 1


def test_debug_recent_records_errors():
    async def scenario(service, client):
        with pytest.raises(ServiceError):
            await client._request("POST", "/v1/stream/nope/counters",
                                  {"window_cycles": 1.0, "accesses": [1]})
        return await client.debug("recent")

    body = run_with_service(scenario)
    # 404 on an expired session is client error, not an anomaly record;
    # the ring stays quiet unless something is actually wrong
    assert body["counts"]["error"] == 0


def test_debug_slo_and_drift_sections():
    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        return await client.debug("slo"), await client.debug("drift")

    slo, drift = run_with_service(scenario)
    assert set(slo) == {"alerts", "slo"}
    assert drift["shadow"]["calls"] == 0  # analytic solves never shadow
    assert drift["auto_fallback"] is True


def test_debug_unknown_section_is_404():
    async def scenario(service, client):
        with pytest.raises(ServiceError) as err:
            await client.debug("mystery")
        return err.value.status

    assert run_with_service(scenario) == 404


def test_debug_bad_limit_is_400():
    async def scenario(service, client):
        with pytest.raises(ServiceError) as err:
            await client.debug("recent", limit="soon")
        return err.value.status

    assert run_with_service(scenario) == 400


def test_debug_is_get_only():
    async def scenario(service, client):
        with pytest.raises(ServiceError) as err:
            await client._request("POST", "/v1/debug/recent", {})
        return err.value.status

    assert run_with_service(scenario) == 405


# ----------------------------------------------------------------------
# the drift drill
# ----------------------------------------------------------------------
def _drill_requests(client, n=8):
    """Contended surrogate solves (sim is within ~2.5% of min(x, g))."""
    rng = np.random.default_rng(5)

    async def run():
        first = None
        for _ in range(n):
            apc = (np.array(APC) * rng.uniform(0.9, 1.1, size=3)).tolist()
            body = await client.partition(
                apc, 0.01, scheme="sqrt", profile="surrogate"
            )
            if first is None:
                first = body
        return first

    return run()


def test_drift_drill_perturbed_artifact_degrades_and_falls_back(tmp_path):
    save_model(make_drifted_model(("sqrt",)), tmp_path)

    async def scenario(service, client):
        before = await _drill_requests(client)
        await service.drain_shadows()
        drift = await client.debug("drift")
        after = await client.partition(
            APC, 0.01, scheme="sqrt", profile="surrogate"
        )
        metrics = await client.metrics()
        recent = await client.debug("recent", kind="fallback")
        return before, metrics, drift, after, recent

    before, metrics, drift, after, recent = run_with_service(
        scenario,
        surrogate_dir=str(tmp_path),
        cache=False,
        shadow_rate=1.0,
        shadow_max_inflight=8,
        drift_min_samples=6,
    )
    # the perturbed artifact served (its card passes the load gate) ...
    assert before["source"] == "surrogate"
    # ... but shadow sampling caught the ~50% MAPE
    assert metrics["drift"]["degraded"] is True
    assert drift["schemes"]["sqrt"]["breached"] is True
    assert drift["schemes"]["sqrt"]["mape"] > 0.3
    # each completed shadow feeds one (sim, surrogate) pair per app, and
    # once degraded the remaining drill requests ride the sim (never
    # shadowed) -- so assert on the scheme's window, not the sampler
    assert drift["schemes"]["sqrt"]["n"] >= 6
    # degraded + auto_fallback: the next surrogate request rides the sim
    assert after["source"] == "sim"
    assert "drift" in metrics["surrogate"]["last_fallback_reason"]
    # ... and the auto-fallback leaves a flight-recorder trail
    assert recent["records"], "auto-fallback must leave a flight record"
    assert "drift" in str(recent["records"][0]["detail"])


def test_reload_clears_degraded_and_serves_surrogate_again(tmp_path):
    save_model(make_drifted_model(("sqrt",)), tmp_path)

    async def scenario(service, client):
        await _drill_requests(client)
        await service.drain_shadows()
        flagged = await client.debug("drift")
        # the operator ships a healthy artifact and reloads it
        save_model(make_model(("sqrt",)), tmp_path)
        await client._request("POST", "/v1/surrogate/reload")
        sources = []
        for k in range(10):
            apc = [v * (1.0 + 0.01 * k) for v in APC]
            body = await client.partition(
                apc, 0.01, scheme="sqrt", profile="surrogate"
            )
            sources.append(body["source"])
        await service.drain_shadows()
        return flagged, sources, await client.debug("drift")

    flagged, sources, drift = run_with_service(
        scenario,
        surrogate_dir=str(tmp_path),
        cache=False,
        shadow_rate=1.0,
        shadow_max_inflight=8,
        drift_min_samples=6,
    )
    assert flagged["degraded"] is True
    # the perturbed artifact's windows went with it
    assert sources == ["surrogate"] * 10
    assert drift["degraded"] is False
    assert drift["schemes"]["sqrt"]["breached"] is False
    assert drift["schemes"]["sqrt"]["mape"] < 0.05


def test_sampled_fallbacks_score_the_model_without_extra_sims(
    tmp_path, monkeypatch
):
    import repro.surrogate.simpath as simpath

    sims = []
    simulate = simpath.simulate_partition_request

    def counting_simulate(*args, **kwargs):
        sims.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(simpath, "simulate_partition_request", counting_simulate)
    save_model(make_drifted_model(("sqrt",)), tmp_path)

    async def scenario(service, client):
        await _drill_requests(client)
        await service.drain_shadows()
        before = await client.debug("drift")
        fallbacks_before = (await client.metrics())["surrogate"]["fallbacks"]
        sims_before = len(sims)
        sources = []
        for k in range(5):
            apc = [v * (1.0 + 0.01 * k) for v in APC]
            body = await client.partition(
                apc, 0.01, scheme="sqrt", profile="surrogate"
            )
            sources.append(body["source"])
        await service.drain_shadows()
        fallbacks = (await client.metrics())["surrogate"]["fallbacks"]
        after = await client.debug("drift")
        return (
            before, after, sources, fallbacks - fallbacks_before,
            len(sims) - sims_before,
        )

    before, after, sources, fallbacks, sim_solves = run_with_service(
        scenario,
        surrogate_dir=str(tmp_path),
        cache=False,
        shadow_rate=1.0,
        shadow_max_inflight=8,
        drift_min_samples=6,
    )
    assert before["degraded"] is True
    assert sources == ["sim"] * 5
    # every sampled fallback grew the scheme's window ...
    n_before = before["schemes"]["sqrt"]["n"]
    assert after["schemes"]["sqrt"]["n"] == n_before + 5
    assert after["shadow"]["sampled"] == before["shadow"]["sampled"] + 5
    # ... from the sim row its request already solved: no extra sims
    assert fallbacks == 5
    assert sim_solves == fallbacks
    # the perturbed model is still wrong, so the flag holds
    assert after["degraded"] is True


def test_healthy_artifact_stays_healthy_under_shadowing(tmp_path):
    save_model(make_model(("sqrt",)), tmp_path)

    async def scenario(service, client):
        await _drill_requests(client)
        await service.drain_shadows()
        metrics = await client.metrics()
        again = await client.partition(
            APC, 0.01, scheme="sqrt", profile="surrogate"
        )
        return metrics, again

    metrics, again = run_with_service(
        scenario,
        surrogate_dir=str(tmp_path),
        cache=False,
        shadow_rate=1.0,
        shadow_max_inflight=8,
        drift_min_samples=6,
    )
    drift = metrics["drift"]
    assert drift["shadow"]["sampled"] >= 6
    assert drift["degraded"] is False
    assert drift["schemes"]["sqrt"]["mape"] < 0.05
    assert again["source"] == "surrogate"  # no fallback


def test_auto_fallback_can_be_disabled(tmp_path):
    save_model(make_drifted_model(("sqrt",)), tmp_path)

    async def scenario(service, client):
        await _drill_requests(client)
        await service.drain_shadows()
        metrics = await client.metrics()
        after = await client.partition(
            APC, 0.01, scheme="sqrt", profile="surrogate"
        )
        return metrics, after

    metrics, after = run_with_service(
        scenario,
        surrogate_dir=str(tmp_path),
        cache=False,
        shadow_rate=1.0,
        shadow_max_inflight=8,
        drift_min_samples=6,
        drift_auto_fallback=False,
    )
    assert metrics["drift"]["degraded"] is True  # still detected ...
    assert after["source"] == "surrogate"  # ... but routing untouched


def test_shadow_rate_zero_disables_sampling(tmp_path):
    save_model(make_model(("sqrt",)), tmp_path)

    async def scenario(service, client):
        await _drill_requests(client)
        await service.drain_shadows()
        return await client.metrics()

    metrics = run_with_service(
        scenario, surrogate_dir=str(tmp_path), cache=False, shadow_rate=0.0
    )
    assert metrics["drift"]["shadow"]["sampled"] == 0


# ----------------------------------------------------------------------
# stream sessions feed the controller pane
# ----------------------------------------------------------------------
def test_stream_epochs_populate_controller_health():
    async def scenario(service, client):
        opened = await client.stream_open(API, 0.01, apc_alone=APC)
        sid = opened["session"]
        for k in range(3):
            accesses = [4000 + 500 * k, 7000, 2000]
            await client.stream_push(sid, 1_000_000.0, accesses)
        metrics = await client.metrics()
        info = await client.stream_info(sid)
        return metrics, info

    metrics, info = run_with_service(scenario)
    ctl = metrics["controller"]
    assert ctl["sessions"] == 1
    assert ctl["epochs"] == 3
    assert ctl["resolve_ms_max"] >= 0.0
    assert info["health"]["epochs"] == 3


# ----------------------------------------------------------------------
# config knobs and CLI flags
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_shadow_rate_env_fallback(self, monkeypatch):
        from repro.service.watch import resolve_shadow_rate

        monkeypatch.delenv("REPRO_SHADOW_RATE", raising=False)
        assert resolve_shadow_rate(None) == 0.05
        assert resolve_shadow_rate(0.25) == 0.25
        monkeypatch.setenv("REPRO_SHADOW_RATE", "0.5")
        assert resolve_shadow_rate(None) == 0.5
        assert resolve_shadow_rate(0.25) == 0.25  # config beats env
        monkeypatch.setenv("REPRO_SHADOW_RATE", "7")
        assert resolve_shadow_rate(None) == 1.0  # clamped
        monkeypatch.setenv("REPRO_SHADOW_RATE", "nope")
        assert resolve_shadow_rate(None) == 0.05  # unparseable -> default

    def test_config_validates_watch_knobs(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceConfig(shadow_rate=1.5)
        with pytest.raises(ConfigurationError):
            ServiceConfig(drift_max_mape=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(recent_capacity=0)

    def test_cli_flags_reach_the_config(self):
        from repro.service.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--shadow-rate", "0.2", "--slo", "/tmp/slo.json",
             "--no-auto-fallback"]
        )
        config = config_from_args(args)
        assert config.shadow_rate == 0.2
        assert config.slo_path == "/tmp/slo.json"
        assert config.drift_auto_fallback is False

    def test_slo_path_config_loads_custom_objectives(self, tmp_path):
        import json

        slo_file = tmp_path / "slo.json"
        slo_file.write_text(json.dumps(
            [{"name": "only.one", "signal": "availability",
              "selector": "/v1/partition"}]
        ))

        async def scenario(service, client):
            return await client.metrics()

        body = run_with_service(scenario, slo_path=str(slo_file))
        assert [s["name"] for s in body["slo"]] == ["only.one"]


# ----------------------------------------------------------------------
# repro-top rendering
# ----------------------------------------------------------------------
def test_repro_top_renders_a_live_snapshot():
    from repro.watch.top import render_lines

    async def scenario(service, client):
        await client.partition(APC, 0.01, api=API)
        return await client.metrics(), await client.debug("recent")

    metrics, recent = run_with_service(scenario)
    lines = render_lines({"metrics": metrics, "recent": recent})
    text = "\n".join(lines)
    assert text.startswith("repro-top |")
    assert "alerts: 0 paging, 0 warning" in text
    assert "/v1/partition" in text
    assert "partition.availability" in text
    assert "DRIFT [healthy]" in text
    assert "CONTROLLER  sessions 0" in text
