"""Configuration knobs for the execution job server.

Everything the server needs to stand up — where to listen, where the SQLite
run registry lives, the queue bound and the retry policy — is collected in
one :class:`ServiceConfig` value object.
``ServiceConfig.from_env()`` reads the ``REPRO_SERVICE_*`` environment
variables so ``python -m repro.service serve`` works with zero flags in a
configured container.  A bad value is a ``ValueError`` at construction
that names its field and variable, never a silent clamp.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from ..execution.sharding import env_number

#: Path of the SQLite run registry (jobs + events tables).
DB_ENV = "REPRO_SERVICE_DB"

#: Unix-socket path of the newline-delimited-JSON front door.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Worker threads mapping jobs onto the executor.
WORKERS_ENV = "REPRO_SERVICE_WORKERS"

#: Default per-job attempt budget (1 = no retries, the historical behavior).
MAX_ATTEMPTS_ENV = "REPRO_SERVICE_MAX_ATTEMPTS"

#: Base of the exponential retry backoff applied between job attempts.
RETRY_BACKOFF_ENV = "REPRO_SERVICE_RETRY_BACKOFF"

#: The numeric fields: (field, environment variable, type, lowest value).
_NUMBERS = (("workers", WORKERS_ENV, int, 1), ("max_pending", None, int, 1),
            ("max_attempts", MAX_ATTEMPTS_ENV, int, 1),
            ("retry_backoff", RETRY_BACKOFF_ENV, float, 0))


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
    fail-on-first-error behavior) and ``retry_backoff`` seeds the
    exponential delay between attempts.

    ``workers``, ``max_pending`` and ``max_attempts`` must be ints >= 1
    and ``retry_backoff`` a finite number >= 0.
    """

    socket_path: Optional[str] = None
    db_path: str = ":memory:"
    workers: int = 2
    max_pending: int = 256
    max_attempts: int = 1
    retry_backoff: float = 0.2

    def __post_init__(self) -> None:
        for field, name, kind, low in _NUMBERS:
            value = getattr(self, field)
            if type(value) not in (int, kind) or not low <= value < math.inf:
                source = f" ({name})" if name else ""
                raise ValueError(
                    f"ServiceConfig.{field}{source} must be a finite "
                    f"{kind.__name__} >= {low}, got {value!r}")

    @classmethod
    def from_env(cls, **overrides) -> "ServiceConfig":
        """A config from the ``REPRO_SERVICE_*`` environment, with keyword
        overrides applied on top."""
        fields = {"socket_path": os.environ.get(SOCKET_ENV) or None,
                  "db_path": os.environ.get(DB_ENV) or ":memory:"}
        for field, name, kind, _ in _NUMBERS:
            value = name and env_number(name, kind)
            if value is not None:
                fields[field] = value
        fields.update(overrides)
        return cls(**fields)
