"""Configuration knobs for the execution job server.

Everything the server needs to stand up — where to listen, where the SQLite
run registry lives, the queue bound and the retry policy — is collected in
one :class:`ServiceConfig` value object.
``ServiceConfig.from_env()`` reads the ``REPRO_SERVICE_*`` environment
variables so ``python -m repro.service serve`` works with zero flags in a
configured container.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

#: Path of the SQLite run registry (jobs + events tables).
DB_ENV = "REPRO_SERVICE_DB"

#: Unix-socket path of the newline-delimited-JSON front door.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Worker threads mapping jobs onto the executor.
WORKERS_ENV = "REPRO_SERVICE_WORKERS"

#: Default per-job attempt budget (1 = no retries, the historical behavior).
MAX_ATTEMPTS_ENV = "REPRO_SERVICE_MAX_ATTEMPTS"

#: Lease duration granted on claim and renewed by the heartbeat thread.
LEASE_SECONDS_ENV = "REPRO_SERVICE_LEASE_SECONDS"

#: Base of the exponential retry backoff applied between job attempts.
RETRY_BACKOFF_ENV = "REPRO_SERVICE_RETRY_BACKOFF"

#: Spool directory of the filesystem shard broker.  When set the server's
#: executor dispatches process shards through a
#: :class:`~repro.execution.broker.FilesystemBroker` on this directory, so
#: elastic ``repro-worker`` processes (possibly on other machines sharing
#: the filesystem) execute the shards instead of the local fork pool.
SPOOL_ENV = "REPRO_SERVICE_SPOOL"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable server configuration.

    ``socket_path`` is where the NDJSON front door listens; it must be set
    when the server starts.  ``db_path`` defaults to ``:memory:`` — fine
    for tests, but a registry that should survive the process
    (crashed-client reattach across server restarts) needs a real file.

    Backpressure: ``max_pending`` bounds the queued-job count; submissions
    beyond it are rejected with a 429-style error instead of queueing
    unboundedly.

    Resilience: ``max_attempts`` is the default per-job attempt budget
    (clients may request more per submission, ``1`` keeps the historical
    fail-on-first-error behavior), ``lease_seconds`` is how long a claimed
    job's lease lasts between heartbeats before a restarted/peer server may
    reclaim it, and ``retry_backoff`` seeds the exponential delay between
    attempts.

    Distribution: ``spool`` (or ``REPRO_SERVICE_SPOOL``) points the shared
    executor's shard broker at a filesystem spool directory, handing
    process shards to elastic ``repro-worker`` processes instead of the
    local fork pool.  Values are bitwise identical either way.
    """

    socket_path: Optional[str] = None
    db_path: str = ":memory:"
    workers: int = 2
    max_pending: int = 256
    max_attempts: int = 1
    lease_seconds: float = 15.0
    retry_backoff: float = 0.2
    spool: Optional[str] = None

    @classmethod
    def from_env(cls, **overrides) -> "ServiceConfig":
        """A config from the ``REPRO_SERVICE_*`` environment, with keyword
        overrides applied on top."""
        config = cls(
            socket_path=os.environ.get(SOCKET_ENV) or None,
            db_path=os.environ.get(DB_ENV) or ":memory:",
            workers=_env_int(WORKERS_ENV, 2),
            max_attempts=_env_int(MAX_ATTEMPTS_ENV, 1),
            lease_seconds=_env_float(LEASE_SECONDS_ENV, 15.0),
            retry_backoff=_env_float(RETRY_BACKOFF_ENV, 0.2),
            spool=os.environ.get(SPOOL_ENV) or None,
        )
        return replace(config, **overrides) if overrides else config
