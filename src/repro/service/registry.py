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
* **Group commit** — :meth:`~RunRegistry.transaction` runs one lifecycle
  step's writes (submit: the row and its ``queued`` event; claim: the claim
  and its ``running`` event; success: result, ``cache`` event, ``done`` row
  and event) inside a ``SAVEPOINT`` of the one open SQLite transaction, the
  *batch*, then releases the registry lock without committing.  One
  ``COMMIT`` — one WAL fsync — covers every step that joined the batch; a
  step that raises rolls back to its own savepoint only.  Whoever commits
  first lets in the steps already queued on the lock, so steps that arrive
  while a ``COMMIT`` is in flight share the next one.  A step made with
  ``wait=True`` (the default) returns only once its batch is committed,
  committing it itself when no other commit is in flight; a ``wait=False``
  step returns at once and a committer thread commits its batch as soon as
  the previous ``COMMIT`` returns.  A step's ``on_commit`` callback runs
  after the ``COMMIT`` that covers it, outside the registry lock, in batch
  order and then step order; a failed ``COMMIT`` rolls the whole batch
  back, runs none of its callbacks and raises :class:`CommitError` in every
  step that waits on it.  A nested block joins the step around it.
* **Committed reads** — a read made outside a step first commits the open
  batch, so no read returns a row that a later failure could take back.
* **Narrow reads** — :meth:`~RunRegistry.get_job` reads only the columns a
  caller names, so a state or result read never decodes the payload.
* **Stored-text reads** — with ``decode=False``, :meth:`~RunRegistry.get_job`,
  :meth:`~RunRegistry.list_jobs` and :meth:`~RunRegistry.events_since`
  return the JSON columns as the
  :class:`~repro.service.protocol.RawJSON` text they were stored as, which
  the server splices into its ``job``, ``result-data``, ``job-list`` and
  replayed ``event`` lines without a decode and a re-encode.
* **Atomic state transitions** — ``transition()`` is one guarded
  ``UPDATE … WHERE state IN (…)``; the returned row count decides who won a
  race (e.g. a cancel racing the worker that just claimed the job), so
  illegal jumps like ``done → running`` are structurally impossible.
* **JSON columns** — payloads, results and event data are stored as JSON
  text, mirroring the pickle-free wire protocol; the registry file is
  inspectable with the ``sqlite3`` CLI and can never execute code on read.
* **Attempts** — :meth:`~RunRegistry.claim` takes a queued job in one
  atomic UPDATE that spends an attempt.  One server owns a registry file
  (:class:`~repro.service.runner.JobRunner` holds its owner lock), so a
  restarted server finds a dead one's crashed work with
  :meth:`~RunRegistry.jobs_in_state` and either calls
  :meth:`~RunRegistry.requeue` (attempts < max_attempts) or dead-letters
  it as ``failed``.  Attempt counts live on the row, so retry budgets
  survive server restarts.
* **Cache accounting** — each job's own expectation-cache hits and misses
  recorded by the runner land on the job row and in a ``cache`` event,
  making the shared executor cache's contribution to each job visible.
* **Old files keep working** — opening an older server's registry file
  adds the columns it lacks and drops retired ones (SQLite 3.35+).
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Union)

from .protocol import JOB_STATES, TERMINAL_STATES, RawJSON

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    job_key          TEXT,
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
    next_eligible_at REAL
);
CREATE TABLE IF NOT EXISTS events (
    job_id      TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    kind        TEXT NOT NULL,
    data        TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""

_JOB_COLUMNS = ("id", "kind", "job_key", "state", "payload", "result",
                "error", "created_at", "started_at", "finished_at",
                "cache_hits", "cache_misses", "attempts", "max_attempts",
                "deadline_seconds", "next_eligible_at")

#: Columns added after the PR-6 schema, with the DDL used to backfill a
#: registry file created by an older server (ALTER TABLE migration).
_MIGRATIONS = (
    ("attempts", "INTEGER NOT NULL DEFAULT 0"),
    ("max_attempts", "INTEGER NOT NULL DEFAULT 1"),
    ("deadline_seconds", "REAL"),
    ("next_eligible_at", "REAL"),
)


def encode_column(value: Any) -> RawJSON:
    """The stored text of a JSON column value; keys are sorted, so equal
    values store equal text."""
    return RawJSON(json.dumps(value, sort_keys=True))


class RegistryError(RuntimeError):
    """An illegal registry operation (unknown job, bad state)."""


class CommitError(RegistryError):
    """A ``COMMIT`` failed: every step of its batch was rolled back."""


class Batch:
    """The steps one ``COMMIT`` covers.

    ``steps`` counts the steps that joined and ``waiters`` those that wait
    for the commit; ``callbacks`` are their ``on_commit`` hooks in step
    order.  ``error`` is set, under the registry lock, when the ``COMMIT``
    fails; ``settled`` is set once the batch is committed and its callbacks
    have run, or once it failed.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.waiters = 0
        self.callbacks: List[Callable[[], None]] = []
        self.error: Optional[BaseException] = None
        self.settled = threading.Event()

    def check(self) -> None:
        """Raise :class:`CommitError` if this batch's ``COMMIT`` failed."""
        if self.error is not None:
            raise CommitError(
                f"registry commit failed: {self.error}") from self.error


class RunRegistry:
    """Thread-safe job/event store over one SQLite database.

    One connection is shared across the server's threads — SQLite serializes
    writers anyway, and a single WAL connection keeps the registry free of
    cross-connection visibility windows.  The registry lock is held for a
    whole step and for a ``COMMIT``, so no other thread's statement can join
    a half-written step; the commit lock admits one committer at a time, so
    batches commit and publish in order.  ``path`` may be ``":memory:"``
    (tests) or a filesystem path (production, reattach across server
    restarts).
    """

    def __init__(self, path: str = ":memory:"):
        self.path = str(path)
        self._lock = threading.RLock()
        # Notified whenever a step leaves: wakes a commit that waits for the
        # steps queued ahead of it.
        self._step_left = threading.Condition(self._lock)
        # Notified when a step that does not wait joins: wakes the committer.
        self._unwaited = threading.Condition(self._lock)
        self._commit_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._arrived = 0  # outermost steps that asked for the lock
        self._left = 0  # ... and released it (under the registry lock)
        self._owner: Optional[int] = None  # the thread inside a step
        self._batch = Batch()
        self._committer: Optional[threading.Thread] = None
        self._closing = False
        self._connection = sqlite3.connect(self.path,
                                           check_same_thread=False,
                                           isolation_level=None)
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
            # Drop what an older schema made and this one lacks: its
            # indexes (this schema creates none, and SQLite cannot drop an
            # indexed column), then its columns (an old NOT NULL column
            # without a default fails every insert).
            for index in self._connection.execute(
                    "PRAGMA index_list(jobs)").fetchall():
                if index["origin"] == "c":
                    self._connection.execute(
                        f"DROP INDEX \"{index['name']}\"")
            for column in sorted(present.difference(_JOB_COLUMNS)):
                self._connection.execute(
                    f"ALTER TABLE jobs DROP COLUMN \"{column}\"")

    @contextlib.contextmanager
    def transaction(self, *, wait: bool = True,
                    on_commit: Optional[Callable[[], None]] = None
                    ) -> Iterator[Batch]:
        """Run the block's registry writes as one step of the open batch.

        Yields the :class:`Batch` the step joined.  With ``wait`` the call
        returns once that batch is committed, raising :class:`CommitError`
        if its ``COMMIT`` failed; without, it returns as soon as the step's
        writes are in, and the committer thread commits them.  ``on_commit``
        runs after the covering ``COMMIT`` and must not use the registry.
        A block that raises rolls back to its own savepoint; a block nested
        in a step joins it.
        """
        if self._owner == threading.get_ident():
            yield self._batch
            return
        with self._count_lock:
            self._arrived += 1
        with self._lock:
            batch = self._batch
            try:
                self._owner = threading.get_ident()
                # The batch's first step opens the transaction, and a failure
                # rolls all of it back; a later step opens a savepoint, which
                # COMMIT releases with the rest.
                joined = self._connection.in_transaction
                self._connection.execute(
                    "SAVEPOINT step" if joined else "BEGIN IMMEDIATE")
                try:
                    yield batch
                except BaseException:
                    if joined:
                        self._connection.execute("ROLLBACK TO step")
                    raise
                batch.steps += 1
                batch.waiters += wait
                if on_commit is not None:
                    batch.callbacks.append(on_commit)
                if not wait:
                    self._start_committer()
                    self._unwaited.notify()
            finally:
                self._owner = None
                if not batch.steps:
                    self._rollback()  # a transaction no step joined
                self._left += 1
                self._step_left.notify_all()
        if wait:
            self.await_commit(batch)

    def await_commit(self, batch: Batch) -> None:
        """Block until ``batch`` is committed, committing it here when no
        other commit is in flight; raises :class:`CommitError` if its
        ``COMMIT`` failed."""
        if not batch.settled.is_set():
            with self._commit_lock:
                # Under the commit lock an unsettled batch is the open one.
                if not batch.settled.is_set():
                    self._commit()
        batch.check()

    def _commit(self) -> None:
        """Commit the open batch, then publish it (commit lock held)."""
        with self._lock:
            batch = self._commit_locked()
        self._settle(batch)

    def _commit_locked(self) -> Optional[Batch]:
        """``COMMIT`` the open batch once the steps queued on the registry
        lock ahead of this commit have joined it (commit lock and registry
        lock held); returns the batch to settle, None if it was empty."""
        with self._count_lock:
            queued = self._arrived
        while self._left < queued:
            self._step_left.wait()
        batch = self._batch
        if not batch.steps:
            return None
        self._batch = Batch()
        try:
            self._connection.execute("COMMIT")
        except sqlite3.Error as error:
            batch.error = error
            self._rollback()
        return batch

    @staticmethod
    def _settle(batch: Optional[Batch]) -> None:
        """Run a committed batch's callbacks, in step order, then release
        its waiters (commit lock held, registry lock not)."""
        if batch is None:
            return
        try:
            if batch.error is None:
                for callback in batch.callbacks:
                    callback()
        finally:
            batch.settled.set()

    def _rollback(self) -> None:
        with contextlib.suppress(sqlite3.Error):
            if self._connection.in_transaction:
                self._connection.execute("ROLLBACK")

    def _start_committer(self) -> None:
        """Start the committer thread on the first step that does not wait
        (registry lock held)."""
        if self._committer is None and not self._closing:
            self._committer = threading.Thread(
                target=self._commit_loop, name="repro-registry-committer",
                daemon=True)
            self._committer.start()

    def _commit_loop(self) -> None:
        """The committer thread: commit each batch no step waits on as soon
        as the previous ``COMMIT`` returns (a batch with a waiter is
        committed by that waiter); exit on close once nothing is pending."""
        while True:
            with self._lock:
                while not self._closing and (
                        not self._batch.steps or self._batch.waiters):
                    self._unwaited.wait()
                if not self._batch.steps:
                    return
            with self._commit_lock:
                self._commit()

    def _read(self, query: str, args: Sequence[Any] = ()
              ) -> List[sqlite3.Row]:
        """Rows of one ``SELECT`` that sees only committed data: inside a
        step it reads the step's transaction, elsewhere it first commits the
        open batch."""
        if self._owner == threading.get_ident():
            return self._connection.execute(query, args).fetchall()
        with self._commit_lock:
            with self._lock:
                batch = self._commit_locked()
                rows = self._connection.execute(query, args).fetchall()
            self._settle(batch)
        return rows

    # -- jobs ---------------------------------------------------------------
    def create_job(self, job_id: str, kind: str, job_key: Optional[str],
                   payload: Union[Dict[str, Any], RawJSON], *,
                   max_attempts: int = 1,
                   deadline_seconds: Optional[float] = None) -> None:
        """Insert a ``queued`` row; ``payload`` is the submission or its
        :func:`encode_column` text, encoded ahead of the caller's step."""
        # Encoded before the step, so the registry lock is not held for it.
        if not isinstance(payload, RawJSON):
            payload = encode_column(payload)
        with self.transaction():
            self._connection.execute(
                "INSERT INTO jobs (id, kind, job_key, state, payload, "
                "created_at, max_attempts, deadline_seconds) "
                "VALUES (?,?,?,?,?,?,?,?)",
                (job_id, kind, job_key, "queued", payload.text, time.time(),
                 max(1, int(max_attempts)),
                 None if deadline_seconds is None else
                 float(deadline_seconds)))

    def get_job(self, job_id: str, columns: Optional[Sequence[str]] = None,
                *, decode: bool = True) -> Optional[Dict[str, Any]]:
        """The job's row (only ``columns``, when given), or None.

        The JSON ``payload`` and ``result`` columns are decoded only when
        read, so a caller that wants the state never pays for the payload;
        with ``decode=False`` they stay their stored :class:`RawJSON` text.
        """
        if columns is None:
            selected = "*"
        else:
            unknown = set(columns).difference(_JOB_COLUMNS)
            if unknown:
                raise RegistryError(f"unknown job columns {sorted(unknown)}")
            selected = ", ".join(columns)
        rows = self._read(f"SELECT {selected} FROM jobs WHERE id = ?",
                          (job_id,))
        return self._job_dict(rows[0], decode) if rows else None

    def list_jobs(self, limit: int = 50, *,
                  decode: bool = True) -> List[Dict[str, Any]]:
        """The newest ``limit`` rows, as :meth:`get_job` returns them."""
        return [self._job_dict(row, decode) for row in self._read(
            "SELECT * FROM jobs ORDER BY created_at DESC LIMIT ?",
            (int(limit),))]

    def jobs_in_state(self, state: str) -> List[Dict[str, Any]]:
        """Every job in ``state``, oldest first."""
        return [self._job_dict(row) for row in self._read(
            "SELECT * FROM jobs WHERE state = ? ORDER BY created_at",
            (state,))]

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

    # -- attempts & retries -------------------------------------------------
    def claim(self, job_id: str) -> Optional[int]:
        """Atomically claim a queued job for one execution attempt.

        Moves the row ``queued -> running``, increments ``attempts`` and
        stamps ``started_at``.  Returns the new attempt number (1-based) on
        success, ``None`` if the job was not queued (cancelled, …).
        """
        with self.transaction():
            rows = self._connection.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1, "
                "started_at = ?, next_eligible_at = NULL "
                "WHERE id = ? AND state = 'queued' RETURNING attempts",
                (time.time(), job_id)).fetchall()
        return int(rows[0]["attempts"]) if rows else None

    def requeue(self, job_id: str,
                next_eligible_at: Optional[float] = None) -> bool:
        """Return a ``queued`` or ``running`` job to ``queued``; False if
        it is terminal or gone.

        ``next_eligible_at`` (absolute time) delays redispatch — the retry
        backoff.  Attempt count is preserved: only :meth:`claim` spends
        attempts, so requeueing a job that never ran is free.
        """
        with self.transaction():
            cursor = self._connection.execute(
                "UPDATE jobs SET state = 'queued', next_eligible_at = ? "
                "WHERE id = ? AND state IN ('queued', 'running')",
                (next_eligible_at, job_id))
        return cursor.rowcount > 0

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
        """Persist one event; returns its per-job ``seq`` (1-based).

        The ``seq`` is numbered by the ``INSERT`` itself: no read per
        event.
        """
        with self.transaction():
            rows = self._connection.execute(
                "INSERT INTO events (job_id, seq, created_at, kind, data) "
                "VALUES (?, (SELECT COALESCE(MAX(seq), 0) + 1 FROM events "
                "WHERE job_id = ?), ?, ?, ?) RETURNING seq",
                (job_id, job_id, time.time(), kind,
                 json.dumps(data, sort_keys=True))).fetchall()
        return int(rows[0]["seq"])

    def events_since(self, job_id: str, after_seq: int = 0, *,
                     decode: bool = True) -> List[Dict[str, Any]]:
        """All persisted events with ``seq > after_seq``, in order; with
        ``decode=False`` each ``data`` stays its stored :class:`RawJSON`
        text."""
        rows = self._read(
            "SELECT seq, created_at, kind, data FROM events "
            "WHERE job_id = ? AND seq > ? ORDER BY seq",
            (job_id, int(after_seq)))
        return [{"job_id": job_id, "seq": int(row["seq"]),
                 "kind": row["kind"],
                 "data": (json.loads(row["data"]) if decode
                          else RawJSON(row["data"]))}
                for row in rows]

    # -- introspection ------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job counts per state (states with no jobs are omitted)."""
        rows = self._read(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state")
        return {row["state"]: int(row["n"]) for row in rows}

    def close(self) -> None:
        """Commit what is pending, stop the committer thread and close the
        connection."""
        with self._lock:
            self._closing = True
            self._unwaited.notify()
        if self._committer is not None:
            self._committer.join()
        with self._commit_lock:
            self._commit()
        with self._lock:
            self._connection.close()

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _job_dict(row: sqlite3.Row, decode: bool = True) -> Dict[str, Any]:
        entry = dict(zip(row.keys(), row))
        for column in ("payload", "result"):
            if entry.get(column) is not None:
                entry[column] = (json.loads(entry[column]) if decode
                                 else RawJSON(entry[column]))
        return entry
