"""The job runner: worker threads mapping queued jobs onto one Executor.

The runner owns the glue between the durable registry, the in-memory job
queue and the execution engine:

* **One shared executor.**  Every job runs against a single
  :class:`~repro.execution.Executor`, so its in-memory expectation cache is
  warm across jobs *and* across clients for the life of the server.
* **Cross-client dedup.**  Submissions carry a content job key
  (:mod:`repro.service.jobs`).  While a keyed job is in flight, an identical
  submission — from any client — returns the *same* job id with
  ``deduped=True`` instead of a second execution; the registry records a
  ``dedup`` event on the surviving job.
* **One registry step per lifecycle step, group-committed.**  Submit (row
  + ``queued`` event), claim (claim + ``running`` event), each partial, and
  the end of a job (result or error, ``cache`` event, terminal row and
  event) are each one
  :meth:`~repro.service.registry.RunRegistry.transaction` step; concurrent
  steps share one ``COMMIT``.  Only a step that answers a client or ends a
  job waits for its commit: submit and the dedup event (awaited outside the
  submit lock, so concurrent submissions share a commit) and every terminal
  step.  Claim, partial and retry-requeue steps do not: the
  worker keeps computing while their fsync runs.  A job whose claim or
  partial failed to commit is noticed by its next step and goes down the
  failed-attempt path (retry or dead-letter).
* **Streaming partials.**  A running job's ``emit`` callback persists each
  partial to the registry's event log (crash-proof) and fans it out to live
  subscribers (low latency).  Subscribers see an event only after the
  commit that covers it, in commit order, so anything a client was sent is
  already replayable.  Attach = replay-then-follow with ``seq`` dedup, so a
  reattaching client sees every event exactly once.
* **Per-job cache accounting.**  Each job's own expectation-cache hits and
  misses are tallied around its run
  (:func:`~repro.execution.cache.cache_tally`, scoped to the worker
  thread) and stored on its row plus a ``cache`` event in the success
  transaction.  The counts are exact with concurrent workers: a job never
  counts the lookups of the job running beside it.
* **One owner.**  A runner holds an exclusive ``flock`` on
  ``<registry path>.lock`` until :meth:`JobRunner.shutdown` ends (the
  kernel drops it if the process dies), so a second runner on the file
  fails at construction; plain readers are unaffected.  Every
  non-terminal job is thus this runner's: :meth:`JobRunner.wait_result`
  waits on the in-memory in-flight set and reads the row once, at the end.
* **Retries & recovery.**  Claiming a job spends one attempt from its
  budget.  A failed attempt with budget left is requeued after exponential
  backoff (a delayed heap holds it until ``next_eligible_at``); the
  budget's last failure dead-letters the job as ``failed``.  Per-job
  deadlines are enforced through the cancellation flag — a
  deadline-cancelled attempt re-enters the retry path instead of the
  cancelled state.  On startup :meth:`_recover_stale` requeues ``queued``
  rows from a dead process (consuming no attempt — they never ran) and
  retries or dead-letters its ``running`` rows at once.  Work recovered
  this way re-decodes its persisted payload lazily in the worker and
  recomputes from the start: the expectation cache, chunk checkpoints
  included, died with the old process.  A retry within one server replays
  the checkpointed chunks of its earlier attempt instead.
* **Graceful shutdown.**  ``shutdown(drain=True)`` stops intake, cancels
  queued jobs, lets running jobs finish, then retires the executor's
  process pool.  ``drain=False`` additionally sets every running job's
  cancel flag.
"""

from __future__ import annotations

import contextlib
import fcntl
import heapq
import os
import queue as queue_module
import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..execution.cache import cache_tally
from .jobs import (JobCancelled, JobContext, PreparedJob, decode_memo_stats,
                   prepare_job)
from .protocol import TERMINAL_STATES
from .queue import JobQueue, QueueFullError
from .registry import (Batch, CommitError, RegistryError, RunRegistry,
                       encode_column)

#: Sentinel pushed to subscribers when a job reaches a terminal state.
STREAM_END = None

#: Upper bound on the exponential retry backoff between job attempts.
MAX_RETRY_BACKOFF = 30.0

#: Monitor tick: delayed-job release and deadline enforcement granularity.
_MONITOR_TICK = 0.05

#: The registry columns a result read returns.
RESULT_COLUMNS = ("id", "state", "result", "error")

#: The scalar columns a worker needs to run a job whose PreparedJob it has.
_RUN_COLUMNS = ("id", "job_key", "max_attempts", "deadline_seconds")


class UnknownJobError(KeyError):
    """No job with that id exists in the registry."""


#: Owner-lock descriptors this process holds.  A forked child (a fork-pool
#: worker, which can outlive a killed server) closes its copies.
_OWNER_LOCKS: Set[int] = set()


def _close_inherited_locks() -> None:
    while _OWNER_LOCKS:
        os.close(_OWNER_LOCKS.pop())


os.register_at_fork(after_in_child=_close_inherited_locks)


def _lock_owner(path: str) -> Optional[int]:
    """Take the owner lock of the registry file ``path``: an exclusive
    ``flock`` on ``<path>.lock``; None for ``":memory:"``.  Never lock the
    database file itself: closing any descriptor of it drops the process's
    POSIX locks (https://www.sqlite.org/howtocorrupt.html, §2.2)."""
    if path == ":memory:":
        return None
    lock_path = f"{path}.lock"
    descriptor = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(descriptor)
        raise RegistryError(
            f"registry {path} is owned by another live server "
            f"(lock {lock_path} is held)") from None
    _OWNER_LOCKS.add(descriptor)
    return descriptor


def _unlock_owner(descriptor: Optional[int]) -> None:
    if descriptor is not None:
        _OWNER_LOCKS.discard(descriptor)
        os.close(descriptor)  # drops the flock


class Submission(tuple):
    """An accepted submission: unpacks as ``(job_id, deduped, position)``;
    ``state`` is the job's state when :meth:`JobRunner.submit` returned."""

    def __new__(cls, job_id: str, deduped: bool, position: Optional[int],
                state: str):
        submission = super().__new__(cls, (job_id, deduped, position))
        submission.state = state
        return submission


class _Step:
    """The events one lifecycle step persisted, in order, and the registry
    batch whose commit covers them."""

    def __init__(self, registry: RunRegistry):
        self.registry = registry
        self.events: List[Dict[str, Any]] = []
        self.batch: Optional[Batch] = None

    def emit(self, job_id: str, kind: str, data: Dict[str, Any]) -> None:
        seq = self.registry.append_event(job_id, kind, data)
        self.events.append({"job_id": job_id, "seq": seq, "kind": kind,
                            "data": data})


class JobRunner:
    """Schedules, executes and streams jobs (thread-safe).

    The runner is transport-agnostic: the socket front door calls
    :meth:`submit`, :meth:`subscribe`/:meth:`unsubscribe`,
    :meth:`wait_result` and :meth:`cancel`; tests may drive it directly
    without any server at all.

    ``max_attempts`` is the default per-job attempt budget (``1`` — the
    historical fail-on-first-error behavior — unless a submission overrides
    it), ``retry_backoff`` the base of the exponential delay between
    attempts; :class:`~repro.service.config.ServiceConfig` validates both
    and ``workers``.  Raises
    :class:`~repro.service.registry.RegistryError` if another live runner
    owns the registry file.
    """

    def __init__(self, executor, registry: RunRegistry,
                 queue: JobQueue, workers: int = 2, *,
                 max_attempts: int = 1, retry_backoff: float = 0.2):
        self.executor = executor
        self.registry = registry
        self.queue = queue
        self._max_attempts = int(max_attempts)
        self._retry_backoff = float(retry_backoff)
        self._prepared: Dict[str, PreparedJob] = {}
        self._cancel_flags: Dict[str, threading.Event] = {}
        self._inflight: Dict[str, str] = {}  # job key -> live job id
        self._submit_lock = threading.Lock()
        self._subscribers: Dict[str, List[queue_module.SimpleQueue]] = {}
        self._subscriber_lock = threading.Lock()
        self._done = threading.Condition()
        self._stopping = False
        # Jobs waiting out a retry backoff: (eligible_at, job_id) min-heap,
        # released into the queue by the monitor.
        self._delayed: List[Tuple[float, str]] = []
        self._delayed_lock = threading.Lock()
        # job id -> (claimed_at, deadline_seconds) for running attempts;
        # drives deadline enforcement.
        self._local_running: Dict[str, Tuple[float, Optional[float]]] = {}
        # Jobs whose cancel flag was set by the deadline enforcer, not a
        # client — their JobCancelled re-enters the retry path.
        self._deadline_hit: Set[str] = set()
        self._stop_event = threading.Event()
        self._owner_lock = _lock_owner(registry.path)
        try:
            self._recover_stale()
        except BaseException:
            _unlock_owner(self._owner_lock)
            raise
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-worker-{index}",
                             daemon=True)
            for index in range(int(workers))
        ]
        for worker in self._workers:
            worker.start()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="repro-service-monitor",
                                         daemon=True)
        self._monitor.start()

    # -- submission ---------------------------------------------------------
    def submit(self, kind: str, payload: Dict[str, Any],
               deadline: Optional[float] = None,
               max_attempts: Optional[int] = None) -> Submission:
        """Validate, dedup and enqueue a job.

        Returns a :class:`Submission` — ``(job_id, deduped, position)``
        plus the job's ``state``.  Raises
        :class:`~repro.service.protocol.ProtocolError` on a malformed
        payload and :class:`QueueFullError` on backpressure; a rejected
        submission leaves a ``cancelled`` row with no events.  ``deadline``
        / ``max_attempts`` override the runner defaults for this job only.
        """
        prepared = prepare_job(kind, payload)
        # Encoded before the submit lock and the registry step, which every
        # other submission and lifecycle step waits on.
        stored = encode_column(payload)
        attempts_budget = self._max_attempts if max_attempts is None \
            else max(1, int(max_attempts))
        rejected = None
        with self._submit_lock:
            if self._stopping:
                raise QueueFullError("the server is shutting down")
            existing = None if prepared.key is None \
                else self._inflight.get(prepared.key)
            if existing is not None:
                with self._step(wait=False) as step:
                    step.emit(existing, "dedup", {})
                    state = self.registry.get_job(
                        existing, ("state",))["state"]
                submission = Submission(existing, True, None, state)
            else:
                job_id = uuid.uuid4().hex[:12]
                self._prepared[job_id] = prepared
                self._cancel_flags[job_id] = threading.Event()
                if prepared.key is not None:
                    self._inflight[prepared.key] = job_id
                # The queue push happens inside the step: a worker that
                # pops the job blocks on the registry until the row is there.
                position = None
                with self._step(wait=False) as step:
                    self.registry.create_job(
                        job_id, kind, prepared.key, stored,
                        max_attempts=attempts_budget,
                        deadline_seconds=deadline)
                    try:
                        position = self.queue.submit(job_id)
                    except QueueFullError as error:
                        rejected = error
                        self.registry.transition(job_id, ("queued",),
                                                 "cancelled")
                        self.registry.record_error(job_id,
                                                   "rejected: queue full")
                    else:
                        step.emit(job_id, "state", {"state": "queued"})
                if rejected is not None:
                    self._forget(job_id, prepared.key)
                submission = Submission(job_id, False, position, "queued")
        # Waiting for durability outside the submit lock lets submissions
        # that arrive meanwhile share the commit.
        try:
            self.registry.await_commit(step.batch)
        except CommitError:
            if existing is None and rejected is None:
                self.queue.remove(job_id)
                self._release(job_id, prepared.key)
            raise
        if rejected is not None:
            raise rejected
        return submission

    # -- queries ------------------------------------------------------------
    def job(self, job_id: str, columns: Optional[Tuple[str, ...]] = None,
            *, decode: bool = True) -> Dict[str, Any]:
        """The job's registry row (only ``columns``, when given; JSON
        columns as stored text with ``decode=False``)."""
        entry = self.registry.get_job(job_id, columns, decode=decode)
        if entry is None:
            raise UnknownJobError(job_id)
        return entry

    def wait_result(self, job_id: str, timeout: Optional[float] = None,
                    *, decode: bool = True) -> Dict[str, Any]:
        """Block until the job is terminal or ``timeout`` expires; returns
        its :data:`RESULT_COLUMNS` (read as :meth:`job` reads them).

        The job leaves the in-flight set (and the runner's condition is
        notified) once its terminal step has committed; the row is read
        once, then.
        """
        with self._done:
            self._done.wait_for(lambda: job_id not in self._cancel_flags,
                                timeout)
        return self.job(job_id, RESULT_COLUMNS, decode=decode)

    def stats(self) -> Dict[str, Any]:
        cache = self.executor.cache_stats
        stats = {
            "jobs": self.registry.counts(),
            "queue": {"pending": self.queue.pending,
                      "running": len(self._local_running)},
            "cache": {"hits": cache.hits, "misses": cache.misses},
            "decode_memo": decode_memo_stats(),
            "workers": len(self._workers),
        }
        with self._delayed_lock:
            stats["delayed"] = len(self._delayed)
        executor_stats = getattr(self.executor, "stats", None)
        if executor_stats is not None:
            stats["faults"] = {
                "pool_respawns": executor_stats.pool_respawns,
                "degraded_shards": executor_stats.degraded_shards,
            }
        return stats

    # -- event streaming ----------------------------------------------------
    def subscribe(self, job_id: str) -> "queue_module.SimpleQueue":
        """A live event feed for one job; pair with :meth:`unsubscribe`.

        Subscribe **before** replaying :meth:`RunRegistry.events_since` and
        drop live events with ``seq`` ≤ the replay horizon — that ordering
        guarantees exactly-once delivery with no gap between replay and
        follow.  :data:`STREAM_END` marks a terminal state.
        """
        feed: queue_module.SimpleQueue = queue_module.SimpleQueue()
        with self._subscriber_lock:
            self._subscribers.setdefault(job_id, []).append(feed)
        return feed

    def unsubscribe(self, job_id: str,
                    feed: "queue_module.SimpleQueue") -> None:
        with self._subscriber_lock:
            feeds = self._subscribers.get(job_id)
            if feeds and feed in feeds:
                feeds.remove(feed)
                if not feeds:
                    del self._subscribers[job_id]

    # -- cancellation -------------------------------------------------------
    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's (possibly new) state."""
        entry = self.job(job_id, ("state", "job_key"))
        if entry["state"] == "queued" and (
                self.queue.remove(job_id)
                or self._remove_delayed(job_id)) \
                and self._cancel_queued(job_id, entry["job_key"]):
            return "cancelled"
        flag = self._cancel_flags.get(job_id)
        if flag is not None:
            flag.set()
        return self.job(job_id, ("state",))["state"]

    # -- shutdown -----------------------------------------------------------
    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = 30.0) -> None:
        """Stop intake, cancel queued jobs, finish (or cancel) running ones,
        retire the executor's worker-process pool, then release the owner
        lock."""
        with self._submit_lock:
            if self._stopping:
                return
            self._stopping = True
        self._stop_event.set()
        queued = self.queue.drain()
        with self._delayed_lock:
            queued.extend(job_id for _, job_id in self._delayed)
            self._delayed.clear()
        for job_id in queued:
            entry = self.registry.get_job(job_id, ("job_key",))
            self._cancel_queued(job_id, entry["job_key"] if entry else None)
        if not drain:
            for flag in list(self._cancel_flags.values()):
                flag.set()
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._monitor.join(timeout=timeout)
        self._notify_done()
        self.executor.shutdown(wait=drain)
        _unlock_owner(self._owner_lock)

    # -- internals ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self.queue.next_job()
            if job_id is None:
                return
            self._run_job(job_id)

    def _run_job(self, job_id: str) -> None:
        flag = self._cancel_flags.get(job_id)
        if flag is None:
            return  # cancelled between pop and claim
        prepared = self._prepared.get(job_id)
        if prepared is None:
            # A job recovered from a dead server process: its PreparedJob
            # died with that process, so re-decode the persisted payload.
            entry = self.registry.get_job(job_id)
            if entry is None:
                return
            try:
                prepared = prepare_job(entry["kind"], entry["payload"])
            except Exception as error:  # noqa: BLE001 - isolation boundary
                with self._finish(job_id, entry["job_key"]) as step:
                    self.registry.record_error(
                        job_id,
                        f"recovered payload failed to prepare: {error}")
                    self.registry.transition(job_id, ("queued", "running"),
                                             "failed")
                    step.emit(job_id, "state",
                              {"state": "failed", "error": str(error)})
                return
            with self._submit_lock:
                self._prepared[job_id] = prepared
        with self._step(wait=False) as step:
            attempt = self.registry.claim(job_id)
            if attempt is not None:
                entry = self.registry.get_job(job_id, _RUN_COLUMNS)
                running: Dict[str, Any] = {"state": "running"}
                if attempt > 1:
                    running["attempt"] = attempt
                step.emit(job_id, "state", running)
        if attempt is None:
            # A racing cancel won: the job is no longer this runner's to
            # wait on.
            self._release(job_id, prepared.key)
            return
        # The batches of this attempt's claim and partials, none of which
        # waits for its commit: a lost one fails the attempt.
        pending = [step.batch]

        def emit(kind: str, data: Dict[str, Any]) -> None:
            self._check_committed(pending)
            pending.append(self._emit(job_id, kind, data))

        deadline = entry["deadline_seconds"]
        self._local_running[job_id] = (
            time.time(), float(deadline) if deadline is not None else None)
        context = JobContext(executor=self.executor, emit=emit,
                             cancelled=flag)
        try:
            try:
                with cache_tally() as tally:
                    result = prepared.run(context)
            except JobCancelled:
                with self._submit_lock:
                    deadline_hit = job_id in self._deadline_hit
                if deadline_hit:
                    self._retry_or_fail(
                        entry, attempt, "deadline",
                        f"deadline exceeded ({deadline}s)")
                else:
                    with self._finish(job_id, prepared.key) as step:
                        if self.registry.transition(
                                job_id, ("queued", "running"), "cancelled"):
                            step.emit(job_id, "state",
                                      {"state": "cancelled"})
            except Exception as error:  # noqa: BLE001 - isolation boundary
                self._retry_or_fail(entry, attempt, type(error).__name__,
                                    f"{type(error).__name__}: {error}",
                                    event_error=str(error))
            else:
                with self._finish(job_id, prepared.key) as step:
                    # Under the registry lock every earlier batch has
                    # committed or failed, or is this step's own.
                    self._check_committed(pending)
                    self.registry.record_result(job_id, result, tally.hits,
                                                tally.misses)
                    step.emit(job_id, "cache",
                              {"hits": tally.hits, "misses": tally.misses})
                    self.registry.transition(job_id, ("running",), "done")
                    step.emit(job_id, "state", {"state": "done"})
        except CommitError as error:
            # The attempt's outcome did not reach the registry.
            self._retry_or_fail(entry, attempt, "CommitError", str(error))
        finally:
            self._local_running.pop(job_id, None)
            with self._submit_lock:
                self._deadline_hit.discard(job_id)

    def _retry_or_fail(self, entry: Dict[str, Any], attempt: int,
                       cause: str, error_text: str,
                       event_error: Optional[str] = None) -> None:
        """After a failed attempt: requeue with backoff, or dead-letter.

        The row is ``running``, or still ``queued`` when the attempt's claim
        failed to commit.  If the registry cannot record the outcome at all,
        the job is released so nothing waits on it; a restarted server
        recovers its row.
        """
        job_id, key = entry["id"], entry["job_key"]
        limit = max(1, int(entry["max_attempts"] or 1))
        if attempt >= limit:
            try:
                with self._finish(job_id, key) as step:
                    if self.registry.transition(
                            job_id, ("queued", "running"), "failed"):
                        self.registry.record_error(job_id, error_text)
                        step.emit(job_id, "state", {
                            "state": "failed",
                            "error": event_error if event_error is not None
                            else error_text})
            except CommitError:
                self._release(job_id, key)
            return
        delay = min(MAX_RETRY_BACKOFF,
                    self._retry_backoff * (2.0 ** (attempt - 1)))
        eligible_at = time.time() + delay
        with self._submit_lock:
            # A fresh flag: a deadline cancellation must not poison the
            # next attempt.
            self._cancel_flags[job_id] = threading.Event()
        with self._step(wait=False) as step:
            if self.registry.requeue(job_id, next_eligible_at=eligible_at):
                step.emit(job_id, "state", {
                    "state": "queued", "retry": attempt, "cause": cause,
                    "backoff": round(delay, 4)})
        if not step.events:  # the row is gone, or already terminal
            self._release(job_id, key)
            return
        with self._delayed_lock:
            heapq.heappush(self._delayed, (eligible_at, job_id))

    @contextlib.contextmanager
    def _step(self, wait: bool = True) -> Iterator[_Step]:
        """One lifecycle step: the block's registry writes and the events it
        emits join the registry's open batch, and subscribers get the events
        once the ``COMMIT`` covering them returns.  With ``wait`` the step
        returns only after that commit."""
        step = _Step(self.registry)
        with self.registry.transaction(
                wait=wait,
                on_commit=lambda: self._publish(step.events)) as batch:
            step.batch = batch
            yield step

    @contextlib.contextmanager
    def _finish(self, job_id: str, key: Optional[str]) -> Iterator[_Step]:
        """A step that ends a job: once it has committed, the job leaves the
        in-flight set and waiters wake."""
        with self._step() as step:
            yield step
        self._release(job_id, key)

    def _cancel_queued(self, job_id: str, key: Optional[str]) -> bool:
        """Cancel a job no worker holds; False if it was no longer queued."""
        with self._finish(job_id, key) as step:
            if self.registry.transition(job_id, ("queued",), "cancelled"):
                step.emit(job_id, "state", {"state": "cancelled"})
        return bool(step.events)

    def _forget(self, job_id: str, key: Optional[str]) -> None:
        """Drop in-memory tracking for a job (submit lock must be held)."""
        self._prepared.pop(job_id, None)
        self._cancel_flags.pop(job_id, None)
        if key is not None and self._inflight.get(key) == job_id:
            del self._inflight[key]

    def _release(self, job_id: str, key: Optional[str]) -> None:
        """Forget a job and wake whoever waits on it."""
        with self._submit_lock:
            self._forget(job_id, key)
        self._notify_done()

    def _emit(self, job_id: str, kind: str, data: Dict[str, Any]) -> Batch:
        """Persist one event in its own step, not waiting for its commit;
        returns the batch that commits it."""
        with self._step(wait=False) as step:
            step.emit(job_id, kind, data)
        return step.batch

    @staticmethod
    def _check_committed(batches: List[Batch]) -> None:
        """Raise :class:`CommitError` if one of ``batches`` failed to
        commit; drop the ones already committed."""
        for batch in batches:
            batch.check()
        batches[:] = [batch for batch in batches
                      if not batch.settled.is_set()]

    def _publish(self, events: List[Dict[str, Any]]) -> None:
        """Fan committed events out to live subscribers."""
        for event in events:
            data = event["data"]
            terminal = event["kind"] == "state" and \
                data.get("state") in TERMINAL_STATES
            with self._subscriber_lock:
                feeds = list(self._subscribers.get(event["job_id"], ()))
            for feed in feeds:
                feed.put(event)
                if terminal:
                    feed.put(STREAM_END)

    def _notify_done(self) -> None:
        with self._done:
            self._done.notify_all()

    # -- the monitor thread -------------------------------------------------
    def _monitor_loop(self) -> None:
        """Release backed-off retries and enforce deadlines."""
        while not self._stop_event.wait(_MONITOR_TICK):
            now = time.time()
            self._release_due(now)
            self._enforce_deadlines(now)

    def _release_due(self, now: float) -> None:
        ready = []
        with self._delayed_lock:
            while self._delayed and self._delayed[0][0] <= now:
                ready.append(heapq.heappop(self._delayed))
        for _, job_id in ready:
            with self._submit_lock:
                if job_id not in self._cancel_flags:
                    continue  # cancelled/forgotten while waiting
            try:
                self.queue.submit(job_id)
            except QueueFullError:
                with self._delayed_lock:
                    heapq.heappush(self._delayed, (now + 1.0, job_id))

    def _enforce_deadlines(self, now: float) -> None:
        for job_id, (claimed_at, deadline) in list(
                self._local_running.items()):
            if deadline is None or now - claimed_at <= deadline:
                continue
            with self._submit_lock:
                already = job_id in self._deadline_hit
                self._deadline_hit.add(job_id)
            if not already:
                flag = self._cancel_flags.get(job_id)
                if flag is not None:
                    flag.set()

    def _remove_delayed(self, job_id: str) -> bool:
        with self._delayed_lock:
            for index, item in enumerate(self._delayed):
                if item[1] == job_id:
                    self._delayed[index] = self._delayed[-1]
                    self._delayed.pop()
                    heapq.heapify(self._delayed)
                    return True
        return False

    # -- crash recovery -----------------------------------------------------
    def _recover_stale(self) -> None:
        """Re-admit jobs a previous server process left non-terminal.

        This runner owns the registry, so every non-terminal row belongs
        to a dead process.  ``queued`` rows never ran — they are requeued
        as-is, consuming no retry attempt.  ``running`` rows died mid-run:
        they are retried at once if their attempt budget has room,
        dead-lettered as ``failed`` otherwise.  Event logs are append-only
        throughout, so reattaching clients replay one consistent history.
        Queued rows are read before any running row is requeued, so none
        is re-admitted twice.
        """
        for entry in self.registry.jobs_in_state("queued"):
            self._readmit(entry, {"state": "queued", "cause": "recovered"})
        for entry in self.registry.jobs_in_state("running"):
            job_id = entry["id"]
            attempts = int(entry["attempts"] or 0)
            if attempts >= max(1, int(entry["max_attempts"] or 1)):
                with self._finish(job_id, entry["job_key"]) as step:
                    self.registry.transition(job_id, ("running",), "failed")
                    self.registry.record_error(
                        job_id, "orphaned: its server died with no "
                        "attempts left")
                    step.emit(job_id, "state",
                              {"state": "failed", "error": "orphaned"})
                continue
            with self._step(wait=False) as step:
                self.registry.requeue(job_id)
                step.emit(job_id, "state", {"state": "queued",
                                            "retry": attempts,
                                            "cause": "orphaned"})
            self._readmit(entry)

    def _readmit(self, entry: Dict[str, Any],
                 data: Optional[Dict[str, Any]] = None) -> None:
        """Put a recovered/reclaimed job back into the in-memory queue
        (its PreparedJob is rebuilt lazily by the worker that claims it),
        emitting ``data`` as its state event when given."""
        job_id = entry["id"]
        with self._submit_lock:
            self._cancel_flags[job_id] = threading.Event()
            if entry["job_key"] is not None:
                self._inflight[entry["job_key"]] = job_id
        if data is not None:
            self._emit(job_id, "state", data)
        now = time.time()
        eligible_at = entry.get("next_eligible_at")
        if eligible_at is not None and float(eligible_at) > now:
            with self._delayed_lock:
                heapq.heappush(self._delayed, (float(eligible_at), job_id))
            return
        try:
            self.queue.submit(job_id)
        except QueueFullError:
            # No capacity right now — the monitor retries shortly.
            with self._delayed_lock:
                heapq.heappush(self._delayed, (now + 1.0, job_id))
