"""CLI entry point: ``python -m repro.serve``.

Runs one :class:`~repro.serve.server.AnalysisService` in the foreground
until SIGTERM/SIGINT, then drains in-flight analyses and exits 0.  The
bound address is printed (and flushed) as the first line of output --
``listening on http://HOST:PORT`` -- so scripts that start the daemon
with ``--port 0`` can parse the actual port.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.serve.server import AnalysisService, ServiceConfig


def _parse_args(argv=None) -> ServiceConfig:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve termination/non-termination analyses over HTTP.",
    )
    defaults = ServiceConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port", type=int, default=defaults.port,
        help="TCP port (0 picks a free one; the bound port is printed)",
    )
    parser.add_argument(
        "--workers", type=int, default=defaults.workers,
        help="analysis worker threads (default %(default)s)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=defaults.queue_limit,
        help="max distinct analyses admitted at once (default %(default)s)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent spec-store directory shared by all workers",
    )
    parser.add_argument(
        "--max-analysis-seconds", type=float,
        default=defaults.max_analysis_seconds,
        help="hard wall-clock cap per analysis (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.max_analysis_seconds <= 0:
        parser.error("--max-analysis-seconds must be > 0")
    return ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        store=args.store,
        max_analysis_seconds=args.max_analysis_seconds,
    )


async def _serve(config: ServiceConfig) -> None:
    service = AnalysisService(config)
    host, port = await service.start()
    print(f"listening on http://{host}:{port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(sig)
    print("shutting down", flush=True)
    await service.shutdown()


def main(argv=None) -> int:
    config = _parse_args(argv)
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
