"""CLI entry point: ``python -m repro.service`` / ``repro-serve``."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.service.config import ServiceConfig
from repro.service.server import PartitionService


def build_parser() -> argparse.ArgumentParser:
    defaults = ServiceConfig()
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the bandwidth-partitioning advisor over HTTP/JSON.",
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--max-batch", type=int, default=defaults.max_batch_size,
                        help="max solves coalesced into one vectorized pass")
    parser.add_argument("--no-batch", action="store_true",
                        help="solve each request individually (baseline mode)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result cache")
    parser.add_argument("--disk-cache", action="store_true",
                        help="persist cached results via repro.util.cache")
    parser.add_argument("--timeout", type=float, default=defaults.request_timeout_s,
                        help="per-request wall-clock budget in seconds")
    parser.add_argument("--surrogate-dir", default=None, metavar="DIR",
                        help="surrogate artifact directory (default: "
                        "$REPRO_SURROGATE_DIR, then the shared cache dir)")
    parser.add_argument("--surrogate-digest", default=None, metavar="HEX",
                        help="refuse any surrogate artifact whose sweep "
                        "digest differs (stale-artifact pin)")
    parser.add_argument("--shadow-rate", type=float, default=None,
                        metavar="FRAC",
                        help="fraction of surrogate solves shadow-resolved "
                        "through the sim for drift scoring (default: "
                        "$REPRO_SHADOW_RATE, then 0.05; 0 disables)")
    parser.add_argument("--slo", default=None, metavar="FILE", dest="slo_path",
                        help="JSON file of SLO objectives replacing the "
                        "built-in defaults (see docs/WATCH.md)")
    parser.add_argument("--no-auto-fallback", action="store_true",
                        help="keep serving the surrogate even while the "
                        "online drift monitor reports it degraded")
    parser.add_argument("--workers", type=int, default=defaults.workers,
                        help="pre-fork this many worker processes behind "
                        "one port (1 = classic single-process server)")
    parser.add_argument("--no-reuse-port", action="store_true",
                        help="multi-worker: share one listening socket "
                        "across workers instead of SO_REUSEPORT")
    parser.add_argument("--max-inflight", type=int,
                        default=defaults.max_inflight,
                        help="per-worker admission budget; arrivals past "
                        "this many in-flight requests are shed with 429 + "
                        "Retry-After (0 disables shedding)")
    parser.add_argument("--no-shared-cache", action="store_true",
                        help="multi-worker: per-process result caches "
                        "instead of the cross-worker shared segment")
    parser.add_argument("--shared-cache-slots", type=int,
                        default=defaults.shared_cache_slots,
                        help="slots in the cross-worker shared cache")
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch,
        batching=not args.no_batch,
        cache=not args.no_cache,
        disk_cache=args.disk_cache,
        request_timeout_s=args.timeout,
        surrogate_dir=args.surrogate_dir,
        surrogate_digest=args.surrogate_digest,
        shadow_rate=args.shadow_rate,
        slo_path=args.slo_path,
        drift_auto_fallback=not args.no_auto_fallback,
        workers=args.workers,
        reuse_port=not args.no_reuse_port,
        max_inflight=args.max_inflight,
        shared_cache=False if args.no_shared_cache else None,
        shared_cache_slots=args.shared_cache_slots,
    )


async def _run(config: ServiceConfig) -> None:
    service = PartitionService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop.set)
    mode = "micro-batched" if config.batching else "unbatched"
    print(
        f"repro-serve listening on http://{config.host}:{service.port} "
        f"({mode}, max_batch={config.max_batch_size})",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        print("repro-serve: draining and shutting down", flush=True)
        await service.stop()


def _run_supervised(config: ServiceConfig) -> None:
    from repro.service.supervisor import Supervisor

    supervisor = Supervisor(config)
    print(
        f"repro-serve: pre-forking {config.workers} workers "
        f"(shared_cache={'on' if config.shared_cache_enabled else 'off'}, "
        f"max_inflight={config.max_inflight or 'unbounded'})",
        flush=True,
    )
    try:
        supervisor.run()
    finally:
        print("repro-serve: supervisor stopped", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        if config.workers > 1:
            _run_supervised(config)
        else:
            asyncio.run(_run(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
