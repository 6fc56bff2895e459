"""``python -m repro.service`` / ``repro-service`` — the service CLI.

``serve`` runs the job server in the foreground until a shutdown request
(or SIGINT/SIGTERM) arrives; the remaining subcommands are thin wrappers
over :class:`~repro.service.client.ServiceClient` for shell-side health
checks and job management against a running server.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from typing import List, Optional

from .client import ServiceClient, ServiceError
from .config import ServiceConfig
from .server import ServiceServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Long-running execution job server")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the job server in the foreground")
    serve.add_argument("--socket", default=None,
                       help="unix-socket path of the NDJSON front door")
    serve.add_argument("--db", default=None,
                       help="SQLite run-registry path (default :memory:)")
    serve.add_argument("--spool", default=None,
                       help="filesystem-broker spool directory: hand "
                            "process shards to elastic repro-worker "
                            "processes instead of the local fork pool")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker threads (default 2)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="queued-job bound")

    for name, help_text in (
            ("ping", "health-check a running server"),
            ("stats", "print queue/registry/cache statistics"),
            ("jobs", "list recent jobs")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--socket", required=True)
        if name == "jobs":
            sub.add_argument("--limit", type=int, default=50)

    for name, help_text in (
            ("status", "print one job's registry row"),
            ("result", "wait for a job and print its result"),
            ("cancel", "cancel a job")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--socket", required=True)
        sub.add_argument("job_id")

    shutdown = commands.add_parser(
        "shutdown", help="ask a running server to shut down gracefully")
    shutdown.add_argument("--socket", required=True)
    shutdown.add_argument("--no-drain", action="store_true",
                          help="cancel running jobs instead of draining")
    return parser


def _serve_config(options: argparse.Namespace) -> ServiceConfig:
    overrides = {}
    if options.socket is not None:
        overrides["socket_path"] = options.socket
    if options.db is not None:
        overrides["db_path"] = options.db
    if options.spool is not None:
        overrides["spool"] = options.spool
    if options.workers is not None:
        overrides["workers"] = options.workers
    if options.max_pending is not None:
        overrides["max_pending"] = options.max_pending
    return ServiceConfig.from_env(**overrides)


async def _serve(config: ServiceConfig) -> None:
    server = ServiceServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signal_number, server.request_shutdown)
    print(f"repro.service listening on socket {config.socket_path} "
          f"(registry {config.db_path})", flush=True)
    await server.serve_until_shutdown()
    print("repro.service stopped", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    options = _build_parser().parse_args(argv)
    if options.command == "serve":
        asyncio.run(_serve(_serve_config(options)))
        return 0
    try:
        with ServiceClient(options.socket) as client:
            if options.command == "ping":
                pong = client.ping()
                print(f"{pong.server} protocol v{pong.version}")
            elif options.command == "stats":
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            elif options.command == "jobs":
                print(json.dumps(
                    client.list_jobs(options.limit),
                    indent=2, sort_keys=True))
            elif options.command == "status":
                print(json.dumps(client.status(options.job_id), indent=2,
                                 sort_keys=True))
            elif options.command == "result":
                response = client.result(options.job_id, wait=True)
                print(json.dumps({"state": response.state,
                                  "result": response.result,
                                  "error": response.error},
                                 indent=2, sort_keys=True))
                if response.state != "done":
                    return 1
            elif options.command == "cancel":
                print(client.cancel(options.job_id))
            elif options.command == "shutdown":
                print(client.shutdown_server(
                    drain=not options.no_drain))
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, FileNotFoundError) as error:
        print(f"error: cannot reach server at {options.socket}: {error}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
