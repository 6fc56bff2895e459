"""The SQLite run registry: durable job rows and append-only event logs.

The registry — not any client connection — owns a job's lifecycle.  Every
submission becomes a row in ``jobs``; every state change and every streamed
partial result becomes a row in ``events`` with a per-job monotonically
increasing ``seq``.  A client that dies mid-stream loses nothing: it (or any
other client) reattaches by job id, replays the persisted events after the
last ``seq`` it saw, and reads the final result straight from the row.

Design points:

* **WAL mode** — writers (worker threads recording partials) never block the
  readers serving status/attach requests, and a crash can only lose the tail
  of the log, never corrupt committed rows.
* **One transaction per lifecycle step** — :meth:`~RunRegistry.transaction`
  groups a step's row change and its events into one commit (submit: the
  row and its ``queued`` event; claim: the claim and its ``running`` event;
  success: result, ``cache`` event, ``done`` row and event).  Every write
  method runs inside one, so a call made outside any block still commits
  on its own; nested blocks join the outermost.
* **Narrow reads** — :meth:`~RunRegistry.get_job` reads only the columns a
  caller names, so a state or result read never decodes the payload.
* **Atomic state transitions** — ``transition()`` is one guarded
  ``UPDATE … WHERE state IN (…)``; the returned row count decides who won a
  race (e.g. a cancel racing the worker that just claimed the job), so
  illegal jumps like ``done → running`` are structurally impossible.
* **JSON columns** — payloads, results and event data are stored as JSON
  text, mirroring the pickle-free wire protocol; the registry file is
  inspectable with the ``sqlite3`` CLI and can never execute code on read.
* **Leases & attempts** — :meth:`~RunRegistry.claim` takes a queued job in
  one atomic UPDATE that spends an attempt and grants a time-bounded lease
  the owner must :meth:`~RunRegistry.heartbeat`; a restarted or peer server
  finds crashed work via :meth:`~RunRegistry.expired_running` and either
  calls :meth:`~RunRegistry.requeue` (attempts < max_attempts) or
  dead-letters it as ``failed``.  Attempt counts live on the row, so retry
  budgets survive server restarts.
* **Cache accounting** — each job's own expectation-cache hits and misses
  (in-memory L1 + persistent L2) recorded by the runner land on the job row
  and in a ``cache`` event, making the shared
  :class:`~repro.execution.disk_cache.DiskExpectationCache`'s contribution
  to each tenant's job visible.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .protocol import JOB_STATES, TERMINAL_STATES

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    tenant           TEXT NOT NULL,
    kind             TEXT NOT NULL,
    job_key          TEXT,
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL,
    payload          TEXT NOT NULL,
    result           TEXT,
    error            TEXT,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    cache_hits       INTEGER NOT NULL DEFAULT 0,
    cache_misses     INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 1,
    deadline_seconds REAL,
    next_eligible_at REAL,
    lease_owner      TEXT,
    lease_expires_at REAL
);
CREATE INDEX IF NOT EXISTS jobs_by_key    ON jobs (job_key, state);
CREATE INDEX IF NOT EXISTS jobs_by_tenant ON jobs (tenant, created_at);
CREATE TABLE IF NOT EXISTS events (
    job_id      TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    kind        TEXT NOT NULL,
    data        TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""

_JOB_COLUMNS = ("id", "tenant", "kind", "job_key", "priority", "state",
                "payload", "result", "error", "created_at", "started_at",
                "finished_at", "cache_hits", "cache_misses", "attempts",
                "max_attempts", "deadline_seconds", "next_eligible_at",
                "lease_owner", "lease_expires_at")

#: Columns added after the PR-6 schema, with the DDL used to backfill a
#: registry file created by an older server (ALTER TABLE migration).
_MIGRATIONS = (
    ("attempts", "INTEGER NOT NULL DEFAULT 0"),
    ("max_attempts", "INTEGER NOT NULL DEFAULT 1"),
    ("deadline_seconds", "REAL"),
    ("next_eligible_at", "REAL"),
    ("lease_owner", "TEXT"),
    ("lease_expires_at", "REAL"),
)


class RegistryError(RuntimeError):
    """An illegal registry operation (unknown job, bad state)."""


class RunRegistry:
    """Thread-safe job/event store over one SQLite database.

    One connection is shared across the server's threads under a lock —
    SQLite serializes writers anyway, and a single WAL connection keeps the
    registry free of cross-connection visibility windows.  The lock is held
    for a whole :meth:`transaction`, so no other thread's statement can
    join (or commit) a half-written step.  ``path`` may be
    ``":memory:"`` (tests) or a filesystem path (production, reattach across
    server restarts).
    """

    def __init__(self, path: str = ":memory:"):
        self.path = str(path)
        self._lock = threading.RLock()
        self._depth = 0  # open transaction() blocks, under the lock
        self._connection = sqlite3.connect(self.path,
                                           check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            if self.path != ":memory:":
                self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA busy_timeout=5000")
            self._connection.executescript(_SCHEMA)
            present = {row["name"] for row in self._connection.execute(
                "PRAGMA table_info(jobs)")}
            for column, ddl in _MIGRATIONS:
                if column not in present:
                    self._connection.execute(
                        f"ALTER TABLE jobs ADD COLUMN {column} {ddl}")
            self._connection.commit()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Run the block's registry writes as one SQLite transaction.

        Re-entrant: the outermost block commits once when it exits and rolls
        back if it raises; an inner block joins it.  The registry lock is
        held throughout.
        """
        with self._lock:
            self._depth += 1
            try:
                yield
            except BaseException:
                if self._depth == 1:
                    self._connection.rollback()
                raise
            else:
                if self._depth == 1:
                    self._connection.commit()
            finally:
                self._depth -= 1

    # -- jobs ---------------------------------------------------------------
    def create_job(self, job_id: str, tenant: str, kind: str,
                   job_key: Optional[str], priority: int,
                   payload: Dict[str, Any], *, max_attempts: int = 1,
                   deadline_seconds: Optional[float] = None) -> None:
        with self.transaction():
            self._connection.execute(
                "INSERT INTO jobs (id, tenant, kind, job_key, priority, "
                "state, payload, created_at, max_attempts, deadline_seconds) "
                "VALUES (?,?,?,?,?,?,?,?,?,?)",
                (job_id, tenant, kind, job_key, int(priority), "queued",
                 json.dumps(payload, sort_keys=True), time.time(),
                 max(1, int(max_attempts)),
                 None if deadline_seconds is None else
                 float(deadline_seconds)))

    def get_job(self, job_id: str, columns: Optional[Sequence[str]] = None
                ) -> Optional[Dict[str, Any]]:
        """The job's row (only ``columns``, when given), or None.

        The JSON ``payload`` and ``result`` columns are decoded only when
        read, so a caller that wants the state never pays for the payload.
        """
        if columns is None:
            selected = "*"
        else:
            unknown = set(columns).difference(_JOB_COLUMNS)
            if unknown:
                raise RegistryError(f"unknown job columns {sorted(unknown)}")
            selected = ", ".join(columns)
        with self._lock:
            row = self._connection.execute(
                f"SELECT {selected} FROM jobs WHERE id = ?",
                (job_id,)).fetchone()
        return self._job_dict(row) if row is not None else None

    def list_jobs(self, tenant: Optional[str] = None,
                  limit: int = 50) -> List[Dict[str, Any]]:
        query = "SELECT * FROM jobs"
        args: tuple = ()
        if tenant is not None:
            query += " WHERE tenant = ?"
            args = (tenant,)
        query += " ORDER BY created_at DESC LIMIT ?"
        with self._lock:
            rows = self._connection.execute(query,
                                            args + (int(limit),)).fetchall()
        return [self._job_dict(row) for row in rows]

    def find_inflight(self, job_key: str) -> Optional[str]:
        """The id of a queued/running job with this content key, if any."""
        with self._lock:
            row = self._connection.execute(
                "SELECT id FROM jobs WHERE job_key = ? AND state IN "
                "('queued', 'running') ORDER BY created_at LIMIT 1",
                (job_key,)).fetchone()
        return row["id"] if row is not None else None

    def transition(self, job_id: str, from_states: Sequence[str],
                   to_state: str) -> bool:
        """Atomically move a job between states; False if it was not in any
        of ``from_states`` (somebody else won the race)."""
        if to_state not in JOB_STATES:
            raise RegistryError(f"unknown state {to_state!r}")
        # Terminal states are absorbing: a finished row never moves again,
        # regardless of what a (buggy) caller passes as from_states.
        from_states = [state for state in from_states
                       if state not in TERMINAL_STATES]
        if not from_states:
            return False
        stamp = ", started_at = ?" if to_state == "running" else \
            (", finished_at = ?" if to_state in TERMINAL_STATES else "")
        placeholders = ",".join("?" for _ in from_states)
        args: list = [to_state]
        if stamp:
            args.append(time.time())
        args.append(job_id)
        args.extend(from_states)
        with self.transaction():
            cursor = self._connection.execute(
                f"UPDATE jobs SET state = ?{stamp} WHERE id = ? AND state "
                f"IN ({placeholders})", args)
        return cursor.rowcount > 0

    # -- leases & retries ---------------------------------------------------
    def claim(self, job_id: str, lease_owner: str,
              lease_seconds: float) -> Optional[int]:
        """Atomically claim a queued job for one execution attempt.

        Moves the row ``queued -> running``, increments ``attempts``, stamps
        ``started_at`` and grants a lease to ``lease_owner``.  Returns the new
        attempt number (1-based) on success, ``None`` if the job was not
        queued (cancelled, already claimed, …).
        """
        now = time.time()
        with self.transaction():
            cursor = self._connection.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1, "
                "started_at = ?, lease_owner = ?, lease_expires_at = ?, "
                "next_eligible_at = NULL WHERE id = ? AND state = 'queued'",
                (now, str(lease_owner), now + float(lease_seconds), job_id))
            if cursor.rowcount == 0:
                return None
            row = self._connection.execute(
                "SELECT attempts FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return int(row["attempts"]) if row is not None else None

    def heartbeat(self, job_id: str, lease_owner: str,
                  lease_seconds: float) -> bool:
        """Extend the lease on a running job this owner holds."""
        with self.transaction():
            cursor = self._connection.execute(
                "UPDATE jobs SET lease_expires_at = ? WHERE id = ? AND "
                "state = 'running' AND lease_owner = ?",
                (time.time() + float(lease_seconds), job_id,
                 str(lease_owner)))
        return cursor.rowcount > 0

    def requeue(self, job_id: str, next_eligible_at: Optional[float] = None,
                from_states: Sequence[str] = ("running",)) -> bool:
        """Return a non-terminal job to ``queued``, clearing its lease.

        ``next_eligible_at`` (absolute time) delays redispatch — the retry
        backoff.  Attempt count is preserved: only :meth:`claim` spends
        attempts, so requeueing a job that never ran is free.
        """
        from_states = [state for state in from_states
                       if state not in TERMINAL_STATES]
        if not from_states:
            return False
        placeholders = ",".join("?" for _ in from_states)
        with self.transaction():
            cursor = self._connection.execute(
                f"UPDATE jobs SET state = 'queued', lease_owner = NULL, "
                f"lease_expires_at = NULL, next_eligible_at = ? "
                f"WHERE id = ? AND state IN ({placeholders})",
                [next_eligible_at, job_id] + list(from_states))
        return cursor.rowcount > 0

    def expired_running(self, now: Optional[float] = None
                        ) -> List[Dict[str, Any]]:
        """Running jobs whose lease is missing or expired at ``now``."""
        if now is None:
            now = time.time()
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM jobs WHERE state = 'running' AND "
                "(lease_expires_at IS NULL OR lease_expires_at < ?)",
                (float(now),)).fetchall()
        return [self._job_dict(row) for row in rows]

    def running_jobs(self, lease_owner: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
        """Running jobs, optionally only those leased to ``lease_owner``."""
        query = "SELECT * FROM jobs WHERE state = 'running'"
        args: tuple = ()
        if lease_owner is not None:
            query += " AND lease_owner = ?"
            args = (str(lease_owner),)
        with self._lock:
            rows = self._connection.execute(query, args).fetchall()
        return [self._job_dict(row) for row in rows]

    def record_result(self, job_id: str, result: Dict[str, Any],
                      cache_hits: int = 0, cache_misses: int = 0) -> None:
        with self.transaction():
            self._connection.execute(
                "UPDATE jobs SET result = ?, cache_hits = ?, "
                "cache_misses = ? WHERE id = ?",
                (json.dumps(result, sort_keys=True), int(cache_hits),
                 int(cache_misses), job_id))

    def record_error(self, job_id: str, error: str) -> None:
        with self.transaction():
            self._connection.execute(
                "UPDATE jobs SET error = ? WHERE id = ?",
                (str(error), job_id))

    # -- events -------------------------------------------------------------
    def append_event(self, job_id: str, kind: str,
                     data: Dict[str, Any]) -> int:
        """Persist one event; returns its per-job ``seq`` (1-based)."""
        with self.transaction():
            row = self._connection.execute(
                "SELECT COALESCE(MAX(seq), 0) AS top FROM events "
                "WHERE job_id = ?", (job_id,)).fetchone()
            seq = int(row["top"]) + 1
            self._connection.execute(
                "INSERT INTO events (job_id, seq, created_at, kind, data) "
                "VALUES (?,?,?,?,?)",
                (job_id, seq, time.time(), kind,
                 json.dumps(data, sort_keys=True)))
        return seq

    def events_since(self, job_id: str,
                     after_seq: int = 0) -> List[Dict[str, Any]]:
        """All persisted events with ``seq > after_seq``, in order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT seq, created_at, kind, data FROM events "
                "WHERE job_id = ? AND seq > ? ORDER BY seq",
                (job_id, int(after_seq))).fetchall()
        return [{"job_id": job_id, "seq": int(row["seq"]),
                 "kind": row["kind"], "data": json.loads(row["data"])}
                for row in rows]

    # -- introspection ------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job counts per state (states with no jobs are omitted)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _job_dict(row: sqlite3.Row) -> Dict[str, Any]:
        entry = dict(zip(row.keys(), row))
        for column in ("payload", "result"):
            if entry.get(column) is not None:
                entry[column] = json.loads(entry[column])
        return entry
