"""Shard planning and multi-core fan-out for the execution layer.

* :class:`ShardPlanner` decides **how** a batch fans out — ``"process"``
  (worker processes, the default for the in-repo CPU-bound backends once a
  batch is big enough to amortize dispatch), ``"thread"`` (a thread pool,
  the default for custom backends), or ``"none"`` (inline — small batches
  where any pool is pure overhead).  The decision combines the resolved
  :class:`~repro.execution.policy.ExecutionPolicy`'s mode and worker count
  (``REPRO_WORKERS`` environment override, then CPU count) and the
  backends' :attr:`~repro.execution.backend.BackendCapabilities.parallel_hint`.
  Whether threads help depends on how long the NumPy kernels hold the
  GIL released: ``evaluate_observable`` over 8 distinct depth-1
  ``FullyConnectedAnsatz`` circuits (Ising Hamiltonian, 2 workers, 2
  vCPUs, numpy 2.4, median of 25 interleaved rounds) took (inline /
  thread / process) 9.2 / 9.7 / 17.9 ms at 8 qubits, 18.4 / 23.6 / 19.6
  ms at 12, 145 / 72 / 194 ms at 14 and 344 / 348 / 587 ms at 16, with
  identical values in all three modes.
* :func:`fan_out` is the one dispatch of every sharded pipeline (task,
  grouped slot and trajectory shards, sweep point blocks, seeded QEC
  blocks): the caller plans and hands over :class:`ShardGroup` units; the
  helper chunks and runs them, keeps fault reports and shard counts, and
  folds worker counters (:mod:`repro.obs`) back exactly once.
* :func:`run_sharded` executes shard payloads under a plan, reusing one
  persistent process pool across calls so fork/spawn cost is paid once per
  process, not once per batch.  Process dispatch is **supervised**: a
  crashed worker (``BrokenProcessPool``) or a shard exceeding its
  wall-clock timeout invalidates the pool, which is respawned, and only
  the failed shards are retried under a capped exponential-backoff budget
  (:class:`ShardRetryPolicy`); when the budget is exhausted the survivors
  run inline.  Per-shard seeding makes retried results bitwise identical,
  and a :class:`FaultReport` describing the recovery is handed to the
  caller's ``on_fault`` callback.
* The module-level ``_*_shard`` functions are the process-pool targets —
  top-level so they pickle by reference; workers receive picklable
  :class:`~repro.execution.task.ExecutionTask` / circuit / observable specs
  and return plain arrays or result lists.

Determinism contract: sharding never changes results.  Deterministic tasks
are pure functions of the task; stochastic stabilizer ensembles seed **per
trajectory** via ``numpy.random.SeedSequence.spawn``, so shard boundaries
cannot move any draw — ``max_workers`` of 1, 2 and 4 produce bitwise
identical values (see ``benchmarks/test_parallel_speedup.py``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import numbers
import os
import threading
import time
from concurrent.futures import (BrokenExecutor, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .. import obs
from .errors import ExecutionError
from .faults import FaultDirective, consult, execute_directive

#: Environment override for the worker count (argument > env > cpu count).
WORKERS_ENV = "REPRO_WORKERS"

#: Below this many pending work items a thread pool costs more than it saves.
_INLINE_THRESHOLD = 2

#: Upper bound on auto-selected workers (threads or processes).
_MAX_AUTO_WORKERS = 8

#: Minimum CPU-bound batch size before auto mode shards across processes;
#: below it, dense batches run inline: small kernels gain nothing from a
#: thread pool (see the module docstring) and a fork costs more than the
#: batch.
_PROCESS_TASK_THRESHOLD = 16

#: Minimum Monte-Carlo trajectory count before an ensemble is worth
#: splitting into per-worker trajectory shards.
_TRAJECTORY_SHARD_THRESHOLD = 32

#: Set in worker processes so nested dispatches always run inline.
_WORKER_ENV = "REPRO_IN_WORKER"

#: Environment overrides for the default shard-retry policy.
SHARD_RETRIES_ENV = "REPRO_SHARD_RETRIES"
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"
SHARD_BACKOFF_ENV = "REPRO_SHARD_BACKOFF"

_PARALLEL_MODES = ("auto", "process", "thread", "none")


def in_worker_process() -> bool:
    """True inside a shard worker (nested dispatch must stay inline)."""
    return os.environ.get(_WORKER_ENV) == "1"


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def env_number(name: str, kind: Callable = int):
    """``kind`` of the environment variable ``name``, or None when it is
    unset or blank; a malformed value is a ``ValueError`` naming ``name``."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """The worker count: explicit argument, ``REPRO_WORKERS``, or the
    usable-CPU count (affinity-aware — a container pinned to 2 of 8 host
    cores gets 2 workers, not 8 time-slicing ones).

    A non-positive count is a ``ValueError``, never a silent clamp: a
    caller passing ``max_workers=0`` used to be quietly planned as one
    worker, hiding the configuration bug that produced the zero.
    """
    if max_workers is not None:
        workers = int(max_workers)
        if workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers!r} (pass None "
                f"to fall back to the {WORKERS_ENV} environment override or "
                f"the usable-CPU count)")
        return workers
    workers = env_number(WORKERS_ENV)
    if workers is not None:
        if workers < 1:
            raise ValueError(
                f"{WORKERS_ENV} must be >= 1, got {workers!r} (unset it to "
                f"use the usable-CPU count)")
        return workers
    return min(_MAX_AUTO_WORKERS, usable_cpus())


def split_evenly(items: Sequence, shards: int) -> List[list]:
    """Partition ``items`` into at most ``shards`` contiguous, order-
    preserving chunks of near-equal size (no empty chunks)."""
    items = list(items)
    shards = max(1, min(int(shards), len(items)))
    chunk_size, remainder = divmod(len(items), shards)
    chunks, start = [], 0
    for index in range(shards):
        size = chunk_size + (1 if index < remainder else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


@dataclass(frozen=True)
class ShardPlan:
    """One dispatch decision: the fan-out mode and how many workers."""

    mode: str  # "process" | "thread" | "none"
    workers: int

    @property
    def is_parallel(self) -> bool:
        return self.mode != "none" and self.workers > 1


class ShardPlanner:
    """Plans how execution batches fan out across cores.

    ``parallel`` is the mode: ``"auto"`` (capability-driven — the
    default), ``"process"``, ``"thread"`` or ``"none"``.  The executor
    builds one planner per dispatch from the resolved
    :class:`~repro.execution.policy.ExecutionPolicy`.  Example::

        planner = ShardPlanner(parallel="auto")
        plan = planner.plan(num_items=64, hints=("process",))
        assert plan.mode == "process"
    """

    def __init__(self, parallel: str = "auto",
                 max_workers: Optional[int] = None):
        if parallel not in _PARALLEL_MODES:
            raise ExecutionError(
                f"parallel must be one of {_PARALLEL_MODES}, got {parallel!r}")
        self.parallel = parallel
        self.max_workers = max_workers

    def plan(self, num_items: int, hints: Sequence[str] = (),
             trajectories: int = 0) -> ShardPlan:
        """The :class:`ShardPlan` for a batch.

        ``num_items`` counts independent work units (tasks, slots, sweep
        points); ``trajectories`` counts Monte-Carlo trajectories when a
        single stochastic unit is internally shardable; ``hints`` are the
        involved backends' ``parallel_hint`` capabilities.
        """
        mode = self.parallel
        workers = resolve_workers(self.max_workers)
        weight = max(int(num_items), int(trajectories))
        if in_worker_process() or workers <= 1 or weight < 2:
            return ShardPlan("none", 1)
        if mode == "none":
            return ShardPlan("none", 1)
        if mode == "auto":
            hints = tuple(hints) or ("thread",)
            if "inline" in hints:
                return ShardPlan("none", 1)
            if all(hint == "process" for hint in hints):
                # CPU-bound backends: processes for big batches, inline for
                # small ones, whose kernels are too short to win on threads.
                if (num_items >= _PROCESS_TASK_THRESHOLD
                        or trajectories >= _TRAJECTORY_SHARD_THRESHOLD):
                    return ShardPlan("process", workers)
                return ShardPlan("none", 1)
            if num_items > _INLINE_THRESHOLD:
                return ShardPlan("thread", workers)
            return ShardPlan("none", 1)
        return ShardPlan(mode, workers)


# ---------------------------------------------------------------------------
# The persistent process pool
# ---------------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _mark_worker_process() -> None:
    os.environ[_WORKER_ENV] = "1"


def _pool_context():
    # Fork (where available) inherits the loaded interpreter — milliseconds
    # per worker versus a full re-import under spawn.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _submit_to_pool(workers: int, fn: Callable,
                    payloads: Sequence[tuple]) -> List:
    """Create/grow the shared pool and submit one batch atomically.

    The pool is persistent across dispatches so fork/spawn cost is paid
    once per process, and it only ever *grows*.  Submission happens under
    the pool lock, so a concurrent caller growing the pool can never
    observe a half-submitted batch or reject a submit; a retired (smaller)
    pool is shut down **without cancelling** its queued futures — work
    already submitted to it runs to completion and its workers exit
    afterwards.

    Note the fork caveat: where the fork start method is used, the first
    pool creation should not race user threads holding locks (the standard
    CPython fork-with-threads hazard).  The executor's own dispatch modes
    are mutually exclusive per call, and pools are created lazily on the
    first process-mode plan.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context(),
                initializer=_mark_worker_process)
            _pool_workers = workers
        return [_pool.submit(fn, *payload) for payload in payloads]


def shutdown_process_pool(wait: bool = True) -> None:
    """Tear down the shared pool (graceful lifecycles, tests, exit).

    ``wait=True`` (the default, and what :meth:`Executor.shutdown` uses)
    drains futures already submitted before the workers exit; ``wait=False``
    cancels whatever has not started.  The pool is recreated lazily by the
    next process-mode dispatch, so tearing it down never poisons later work.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=wait, cancel_futures=not wait)
            _pool = None
            _pool_workers = 0


def _invalidate_pool() -> None:
    """Retire the shared pool after a breakage or timeout.

    A ``BrokenProcessPool`` is permanent — every later submit raises — so
    the broken object must never be left in the module global: resetting
    ``_pool``/``_pool_workers`` here is what lets the next dispatch (a
    supervisor retry *or* an unrelated later caller) lazily rebuild a
    healthy pool.  ``wait=False`` + ``cancel_futures`` abandons stuck
    workers; they finish (or die) on their own and exit.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None
            _pool_workers = 0


atexit.register(shutdown_process_pool)


# ---------------------------------------------------------------------------
# The shard supervisor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardRetryPolicy:
    """Retry budget for supervised process dispatch.

    ``max_retries`` extra dispatch rounds after the first (each retries
    only the still-failed shards), with exponential backoff between rounds
    (``backoff_base * 2**(round-1)``, capped at ``backoff_cap``).
    ``timeout`` bounds one dispatch round's wall clock — a shard result
    not collected by then counts as failed and the stuck pool is retired.
    After the budget, failed shards run inline (no pool, no injection).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    timeout: Optional[float] = None

    def __post_init__(self):
        # A bad budget must fail here, not mid-dispatch once a shard
        # faults (a str retry count) or as silent degradation (timeout=0
        # times out every shard).
        retries = self.max_retries
        if not (_is_number(retries, numbers.Integral) and retries >= 0):
            raise ValueError(
                f"max_retries must be an int >= 0, got {retries!r}")
        for name in ("backoff_base", "backoff_cap"):
            value = getattr(self, name)
            if not (_is_number(value) and value >= 0):
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.timeout is not None and not (_is_number(self.timeout)
                                             and self.timeout > 0):
            raise ValueError(
                f"timeout must be None or > 0, got {self.timeout!r}")

    @classmethod
    def from_env(cls) -> "ShardRetryPolicy":
        """Policy with ``REPRO_SHARD_RETRIES`` / ``REPRO_SHARD_TIMEOUT`` /
        ``REPRO_SHARD_BACKOFF`` environment overrides applied; a bad value
        is a ``ValueError`` naming its variable."""
        fields = {"max_retries": (SHARD_RETRIES_ENV, int),
                  "backoff_base": (SHARD_BACKOFF_ENV, float),
                  "timeout": (SHARD_TIMEOUT_ENV, float)}
        values = {}
        for field_name, (name, kind) in fields.items():
            value = env_number(name, kind)
            if value is None:
                continue
            try:
                cls(**{field_name: value})
            except ValueError as error:
                raise ValueError(f"{name}: {error}") from None
            values[field_name] = value
        return cls(**values)


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class FaultReport:
    """What the supervisor did to finish one brokered dispatch.

    ``attempts`` counts dispatch rounds (1 = no retries), ``retried`` the
    shard indices re-dispatched (in round order, repeats possible),
    ``causes`` one human-readable cause per failed shard observation,
    ``backoff`` the inter-round sleeps taken, ``respawns`` how often the
    pool was invalidated, ``lease_expiries`` how many worker leases
    expired and were requeued by the broker (a dead remote worker is just
    another lease expiry), and ``inline_shards`` how many shards fell
    back to inline execution after the budget was exhausted.
    """

    shards: int = 0
    attempts: int = 1
    broker: str = "local"
    retried: List[int] = field(default_factory=list)
    causes: List[str] = field(default_factory=list)
    backoff: List[float] = field(default_factory=list)
    timeouts: int = 0
    respawns: int = 0
    lease_expiries: int = 0
    inline_shards: int = 0
    #: Payload indices that fell back to inline execution.
    inline_indices: List[int] = field(default_factory=list)

    @property
    def faulted(self) -> bool:
        return bool(self.causes or self.respawns or self.lease_expiries
                    or self.inline_shards)

    def as_dict(self) -> dict:
        return {"shards": self.shards, "attempts": self.attempts,
                "broker": self.broker,
                "retried": list(self.retried), "causes": list(self.causes),
                "backoff": list(self.backoff), "timeouts": self.timeouts,
                "respawns": self.respawns,
                "lease_expiries": self.lease_expiries,
                "inline_shards": self.inline_shards,
                "inline_indices": list(self.inline_indices)}


def _shard_entry(directive: Optional[FaultDirective], fn: Callable,
                 payload: tuple):
    """Worker-side shard entry: apply an injected fault, then run.

    The parent consults the fault injector and embeds the (picklable)
    directive per shard, so injection needs no worker-side configuration
    and the schedule is independent of which worker picks the shard up.
    """
    if directive is not None:
        execute_directive(directive)
    return fn(*payload)


@dataclass(frozen=True)
class ShardSpec:
    """One unit of brokered work: the supervisor hands these to
    :meth:`~repro.execution.broker.ShardBroker.submit`.  ``index`` is the
    shard's position in the caller's payload list; ``directive`` is a
    parent-consulted fault-injection directive (worker-executed, so the
    schedule is independent of shard placement)."""

    index: int
    fn: Callable
    payload: tuple
    directive: Optional[FaultDirective] = None


@dataclass
class ShardOutcome:
    """One completed (or failed) shard as reported by a broker's ``poll``.

    ``retryable`` distinguishes transient failures (a dead worker, a
    :class:`~repro.execution.errors.TransientFault`) from deterministic
    errors, which carry the original exception in ``error`` and propagate;
    ``respawned`` marks outcomes whose failure also retired the local
    process pool (so the supervisor counts one respawn per round).
    """

    shard_id: str
    ok: bool
    value: object = None
    cause: str = ""
    retryable: bool = False
    error: Optional[BaseException] = None
    respawned: bool = False


def _run_supervised(broker, fn: Callable, payloads: Sequence[tuple],
                    policy: ShardRetryPolicy, report: FaultReport,
                    on_result: Optional[Callable[[int, object], None]] = None
                    ) -> List:
    """Brokered dispatch with failure detection and shard retry.

    Per-shard seeds mean a retried shard reproduces its result bitwise, so
    retrying is always safe.  The supervisor speaks only the
    :class:`~repro.execution.broker.ShardBroker` protocol: it submits
    :class:`ShardSpec` batches, polls for :class:`ShardOutcome` events,
    acks successes and nacks failures.  Retryable causes are dead workers
    (``BrokenExecutor`` on the local pool, a lease expiring past its
    per-shard budget on a distributed broker), wall-clock timeouts, and
    :class:`~repro.execution.errors.TransientFault`; any other exception
    propagates immediately — a deterministic error would fail every retry
    identically.  Broker-requeued lease expiries are accounted but stay
    outstanding (another worker finishes them).  After
    ``policy.max_retries`` extra rounds the remaining shards run inline
    with their **raw** payloads (never through :func:`_shard_entry` — an
    injected ``kill`` must not execute in the caller's process).
    """
    results: List = [None] * len(payloads)
    pending = list(range(len(payloads)))
    expiries: dict = {}
    retries_used = 0
    while pending:
        specs = [ShardSpec(index=index, fn=fn,
                           payload=tuple(payloads[index]),
                           directive=consult("shard"))
                 for index in pending]
        failed: List[int] = []
        causes: List[str] = []
        round_respawn = False
        try:
            shard_ids = broker.submit(specs)
        except BrokenExecutor as error:
            failed = list(pending)
            causes = [type(error).__name__] * len(pending)
            round_respawn = True
            shard_ids = []
        index_of = {shard_id: spec.index
                    for shard_id, spec in zip(shard_ids, specs)}
        outstanding = dict(index_of)
        deadline = None if policy.timeout is None \
            else time.monotonic() + policy.timeout
        while outstanding:
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                # The round's wall clock is spent: reclaim every
                # still-outstanding shard and retry it next round.
                for shard_id, index in outstanding.items():
                    broker.nack(shard_id, "timeout")
                    failed.append(index)
                    causes.append("timeout")
                    report.timeouts += 1
                round_respawn = True
                outstanding.clear()
                break
            for outcome in broker.poll(remaining):
                index = outstanding.pop(outcome.shard_id, None)
                if index is None:
                    continue
                if outcome.ok:
                    results[index] = outcome.value
                    broker.ack(outcome.shard_id)
                    if on_result is not None:
                        on_result(index, outcome.value)
                elif outcome.retryable:
                    broker.nack(outcome.shard_id, outcome.cause)
                    failed.append(index)
                    causes.append(outcome.cause)
                    if outcome.respawned:
                        round_respawn = True
                else:
                    for shard_id in outstanding:
                        broker.nack(shard_id, "abandoned")
                    raise outcome.error
            for shard_id in broker.heartbeat():
                # The broker already requeued the expired shard; it stays
                # outstanding unless its per-shard expiry budget is spent
                # (a shard that kills every worker must not loop forever).
                # Expiries are attributed via the round's submission map,
                # not ``outstanding`` — the requeued shard often completes
                # (and is acked) within the same poll that reclaimed its
                # lease, and the dead worker must be accounted regardless.
                index = index_of.get(shard_id)
                if index is None:
                    continue
                report.lease_expiries += 1
                report.causes.append("lease-expired")
                if shard_id not in outstanding:
                    continue  # already finished by another worker
                expiries[index] = expiries.get(index, 0) + 1
                if expiries[index] > policy.max_retries:
                    broker.nack(shard_id, "abandoned")
                    del outstanding[shard_id]
                    failed.append(index)
                    causes.append("lease-budget")
        if round_respawn:
            report.respawns += 1
        if not failed:
            break
        # Poll returns completion-ordered events; report in index order so
        # recovery accounting is deterministic.
        order = sorted(range(len(failed)), key=failed.__getitem__)
        pending = [failed[i] for i in order]
        report.causes.extend(causes[i] for i in order)
        if retries_used >= policy.max_retries:
            for index in pending:
                results[index] = fn(*payloads[index])
                if on_result is not None:
                    on_result(index, results[index])
            report.inline_shards = len(pending)
            report.inline_indices = list(pending)
            break
        retries_used += 1
        delay = min(policy.backoff_cap,
                    policy.backoff_base * (2 ** (retries_used - 1)))
        if delay > 0:
            time.sleep(delay)
        report.backoff.append(delay)
        report.retried.extend(pending)
        report.attempts += 1
    return results


def run_sharded(plan: ShardPlan, fn: Callable,
                payloads: Sequence[tuple],
                policy: Optional[ShardRetryPolicy] = None,
                on_fault: Optional[Callable[[FaultReport], None]] = None,
                broker=None,
                on_result: Optional[Callable[[int, object], None]] = None
                ) -> List:
    """Run ``fn(*payload)`` for every payload under ``plan``; results align
    with the payload order.  ``fn`` must be a module-level callable when the
    plan is ``"process"`` (it crosses the pickle boundary).

    Process dispatch runs supervised (see :func:`_run_supervised`) through
    a :class:`~repro.execution.broker.ShardBroker` — the default
    :class:`~repro.execution.broker.LocalProcessBroker` wraps the shared
    fork pool; pass ``broker`` (an instance, exclusive to this dispatch)
    to fan out elsewhere, e.g. a
    :class:`~repro.execution.broker.FilesystemBroker` spool shared with
    ``repro-worker`` processes.  ``policy`` overrides the retry budget
    (default :meth:`ShardRetryPolicy.from_env`), ``on_fault`` receives the
    :class:`FaultReport` — only when something actually faulted, so the
    happy path stays callback-free — and ``on_result(index, value)`` fires
    as each shard's result lands (in completion order under a parallel
    plan), which is what lets callers checkpoint partial progress.
    """
    if not payloads:
        return []
    if not plan.is_parallel or len(payloads) == 1:
        results = []
        for index, payload in enumerate(payloads):
            value = fn(*payload)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results
    if plan.mode == "process":
        if policy is None:
            policy = ShardRetryPolicy.from_env()
        if broker is None:
            from .broker import LocalProcessBroker
            broker = LocalProcessBroker(plan.workers)
        report = FaultReport(shards=len(payloads),
                             broker=getattr(broker, "name", "local"))
        results = _run_supervised(broker, fn, payloads, policy, report,
                                  on_result=on_result)
        if report.faulted and on_fault is not None:
            on_fault(report)
        return results
    with ThreadPoolExecutor(
            max_workers=min(plan.workers, len(payloads))) as pool:
        futures = [pool.submit(fn, *payload) for payload in payloads]
        results = [None] * len(payloads)
        for index, future in enumerate(futures):
            results[index] = future.result()
            if on_result is not None:
                on_result(index, results[index])
        return results


# ---------------------------------------------------------------------------
# The one fan-out path
# ---------------------------------------------------------------------------


class ShardGroup(NamedTuple):
    """Units that fan out through one module-level shard function: each
    chunk of ``units`` runs as ``fn(*head, chunk)``.  The :mod:`repro.obs`
    instance counters of the ``head`` objects (a backend's
    ``invocations``, a decoder's diagnostics) that a process shard moves
    come home onto the caller's ``head``."""

    fn: Callable
    head: tuple
    units: Sequence


class FanOut(NamedTuple):
    """Per group, each chunk's value in unit order; the supervisor's fault
    reports; the payloads handed to the process broker."""

    values: List[list]
    reports: List[FaultReport]
    process_shards: int


#: Per dispatching process id, the tokens of the shards that ran in that
#: process.  Keyed by pid: a forked worker inherits a copy of the dict and
#: never files its own shards as the dispatcher's.
_ran_here: Dict[int, set] = {}


def _counted_shard(fn: Callable, *args) -> tuple:
    """Shard entry of :func:`fan_out`: ``(fresh token, fn(*args), counter
    movement where it ran)``, the movement being that of the process-wide
    :mod:`repro.obs` counters and of the head objects' instance counters;
    a dispatching process files the token."""
    head = args[:-1]
    counters, instances = obs.read(), obs.instance_counters(head)
    value = fn(*args)
    moved = (obs.delta(counters, obs.read()),
             obs.delta(instances, obs.instance_counters(head)))
    token = os.urandom(8)
    tokens = _ran_here.get(os.getpid())
    if tokens is not None:
        tokens.add(token)
    return token, value, moved


def fan_out(executor, policy, plan: ShardPlan, groups: Sequence[ShardGroup],
            *, block: Optional[int] = None,
            on_result: Optional[Callable[[list, object], None]] = None
            ) -> FanOut:
    """Run every :class:`ShardGroup` under ``plan`` — the one path from a
    planned dispatch to :func:`run_sharded`.

    An inline plan runs each group as one chunk; a parallel plan cuts it
    into ``block``-unit blocks when given (payloads then do not depend on
    the worker count or broker), else one chunk per worker.  ``policy``
    (the resolved :class:`~repro.execution.policy.ExecutionPolicy`) gives
    the broker and retry budget; ``on_result(chunk, value)`` fires as each
    chunk lands.  Fault reports and ``process_shards`` land on
    ``executor``, and the :mod:`repro.obs` counters a shard moved (the
    process-wide ones, the group head's instance counters) are folded
    exactly once: not for a shard that ran in this process during this
    dispatch, for any other.  A worker's program-cache movement reaches
    ``ExecutionStats`` through the caller's ``track_program_cache`` window.
    """
    chunks: List[Tuple[int, list]] = []
    for position, group in enumerate(groups):
        units = list(group.units)
        if not plan.is_parallel:
            pieces = [units]
        elif block:
            pieces = [units[start:start + block]
                      for start in range(0, len(units), block)]
        else:
            pieces = split_evenly(units, plan.workers)
        chunks.extend((position, piece) for piece in pieces)
    payloads = [(groups[position].fn,) + groups[position].head + (piece,)
                for position, piece in chunks]
    # run_sharded hands payloads to the broker only under a parallel
    # process plan with more than one of them.
    brokered = (plan.mode == "process" and plan.is_parallel
                and len(payloads) > 1)
    reports: List[FaultReport] = []
    kwargs: dict = {}
    if brokered:
        # Built per dispatch: a broker holds per-dispatch state (shard-id
        # maps, spool bookkeeping) and is never shared.
        from .broker import make_broker

        def on_fault(report: FaultReport) -> None:
            reports.append(report)
            executor.note_fault_report(report)

        kwargs = {"policy": policy.retry,
                  "broker": make_broker(policy.broker, plan.workers),
                  "on_fault": on_fault}
    landed = None
    if on_result is not None:
        def landed(index: int, envelope: tuple) -> None:
            on_result(chunks[index][1], envelope[1])
    if plan.is_parallel:
        tokens = _ran_here.setdefault(os.getpid(), set())
        envelopes = run_sharded(plan, _counted_shard, payloads,
                                on_result=landed, **kwargs)
        # A shard that ran here (on a thread, degraded or stolen from a
        # spool) already moved this process's counters.  A worker's shard,
        # or a spool result file an earlier dispatch left, is folded.
        local = {token for token, _, _ in envelopes if token in tokens}
        tokens.difference_update(local)
    else:
        # Inline: nothing to supervise, no dispatch wait to account and no
        # counters to fold.
        local, envelopes = set(), []
        for index, (fn, *args) in enumerate(payloads):
            envelopes.append((None, fn(*args), None))
            if landed is not None:
                landed(index, envelopes[-1])
    values: List[list] = [[] for _ in groups]
    for (position, _), (token, value, moved) in zip(chunks, envelopes):
        values[position].append(value)
        if token is not None and token not in local:
            obs.absorb(moved[0])
            obs.absorb_instances(groups[position].head, moved[1])
    shards = len(payloads) if brokered else 0
    if shards:
        with executor._lock:
            executor.stats.process_shards += shards
    return FanOut(values, reports, shards)


# ---------------------------------------------------------------------------
# Process-pool shard targets (top-level: they pickle by reference)
# ---------------------------------------------------------------------------

def _run_batch_shard(backend, tasks) -> list:
    """Plain ``execute()`` shard: one backend, a slice of its tasks."""
    return backend.run_batch(tasks)


def _term_expectations_shard(backend, tasks) -> list:
    """Grouped-engine shard: per-task term-value arrays for one backend."""
    return [backend.term_expectations(task) for task in tasks]


def _sweep_points_shard(circuit, observable, amplitude_budget: int,
                        parameter_sets) -> np.ndarray:
    """Batched-sweep shard: compile in-process, run a slice of the points.

    Each worker compiles the template once into its own process-wide program
    cache (first shard pays it, later sweeps of the same template hit), then
    binds and executes its points in amplitude-budget-bounded stacked
    batches (:meth:`~repro.simulators.program.CompiledProgram.run_sweep`)
    exactly like the single-process path.
    """
    from ..simulators.kernels import statevector_term_expectations_batch
    from ..simulators.program import compile_circuit

    program = compile_circuit(circuit)
    chunk = max(1, amplitude_budget // (1 << circuit.num_qubits))
    rows: List[np.ndarray] = []
    for start in range(0, len(parameter_sets), chunk):
        states = program.run_sweep(parameter_sets[start:start + chunk])
        rows.append(statevector_term_expectations_batch(
            states, observable=observable))
    return rows[0] if len(rows) == 1 else np.concatenate(rows, axis=0)


def _clifford_sweep_shard(program, observable, parameter_sets) -> np.ndarray:
    """Compiled Clifford sweep: ``(points, terms)`` values of one packed
    Pauli-propagation pass over a
    :class:`~repro.simulators.pauli_propagation.CliffordProgram`."""
    from ..simulators import pauli_propagation
    return pauli_propagation.propagate(program, observable,
                                       points=parameter_sets)


def plan_trajectory_shards(backend, task, plan: ShardPlan
                           ) -> Optional[Tuple[ShardGroup, Callable]]:
    """Shard one stochastic trajectory-ensemble task, if worth it.

    Returns ``(group, finalize)`` — a :class:`ShardGroup` whose units are
    the task's per-trajectory seeds, run by the backend's
    ``trajectory_shard_runner`` (a module-level callable executed in the
    worker processes; the stabilizer backend's is
    :func:`repro.execution.adapters.run_stabilizer_trajectory_shard`, and a
    custom backend implementing the trajectory protocol must supply its
    own), and a closure folding the shards' rows into per-term values — or
    None when the backend/task pair is not a shardable ensemble or the
    ensemble is too small to split.  Shards partition the seed list, so the
    fold is bitwise independent of the shard count.
    """
    spec = getattr(backend, "trajectory_spec", None)
    count = getattr(backend, "trajectory_count", None)
    runner = getattr(backend, "trajectory_shard_runner", None)
    if spec is None or count is None or runner is None \
            or not plan.is_parallel or plan.mode != "process":
        return None
    trajectories = count(task)
    if trajectories is None or trajectories < _TRAJECTORY_SHARD_THRESHOLD:
        return None
    noise_model, circuit, observable, seeds = spec(task)

    def finalize(row_blocks: List[np.ndarray]) -> np.ndarray:
        rows = np.concatenate(row_blocks, axis=0)
        return backend.finalize_trajectory_rows(task, rows)

    return (ShardGroup(runner, (noise_model, circuit, observable), seeds),
            finalize)
