"""Partitioning-advisor service in ~60 lines.

Starts the asyncio HTTP service in-process on an ephemeral port, asks
it for bandwidth partitions over the wire -- single requests, a batch
call, and a QoS plan -- then reads back the server's own metrics.
Everything here works identically against a standalone server started
with ``python -m repro.service`` (or the ``repro-serve`` entry point).
"""

from __future__ import annotations

import asyncio

from repro.service import AsyncServiceClient, PartitionService, ServiceConfig

# a 4-app mix in APC (accesses per cycle) terms, paper Table III style
APC_ALONE = [0.0131, 0.0106, 0.0052, 0.0018]  # lbm-like .. gobmk-like
API = [0.0465, 0.0191, 0.0076, 0.0070]
BANDWIDTH = 0.0198  # DDR2-400-ish usable APC budget


async def main() -> None:
    service = PartitionService(ServiceConfig(port=0))
    await service.start()
    print(f"service listening on 127.0.0.1:{service.port}\n")

    async with AsyncServiceClient(port=service.port) as client:
        # --- one partition per objective -------------------------------
        print("scheme       per-app APC shares                    Hsp    Wsp")
        for scheme in ("sqrt", "prop", "prio_apc", "prio_api"):
            result = await client.partition(
                APC_ALONE, BANDWIDTH, scheme=scheme, api=API
            )
            shares = "  ".join(f"{x:.4f}" for x in result["apc_shared"])
            print(
                f"{scheme:12s} [{shares}]  "
                f"{result['metrics']['hsp']:.3f}  {result['metrics']['wsp']:.3f}"
            )

        # --- the same four in one vectorized round trip ----------------
        batch = await client.partition_batch(
            [
                {"scheme": s, "apc_alone": APC_ALONE, "api": API, "bandwidth": BANDWIDTH}
                for s in ("sqrt", "prop", "prio_apc", "prio_api")
            ]
        )
        print(f"\nbatch call returned {len(batch)} solutions in one request")
        cached = await client.partition(APC_ALONE, BANDWIDTH, scheme="sqrt", api=API)
        print(f"repeat request served from cache: {cached['cached']}")

        # --- QoS: pin app 3's IPC, optimize best-effort Wsp ------------
        plan = await client.qos(
            APC_ALONE, API, BANDWIDTH, targets=[(3, 0.15)], objective="wsp"
        )
        print(
            f"\nQoS plan: app 3 reserved {plan['b_qos']:.4f} APC for IPC 0.15, "
            f"{plan['b_best_effort']:.4f} left for best-effort"
        )
        shares = "  ".join(f"{x:.4f}" for x in plan["apc_shared"])
        print(f"          shares [{shares}]")

        # --- the server kept score -------------------------------------
        metrics = await client.metrics()
        partition_stats = metrics["endpoints"]["/v1/partition"]
        print(
            f"\nserver metrics: {partition_stats['requests']} partition requests, "
            f"p50 {partition_stats['latency_ms']['p50']:.2f} ms, "
            f"cache hit rate {metrics['cache']['hit_rate']:.0%}"
        )

    await service.stop()


if __name__ == "__main__":
    asyncio.run(main())
