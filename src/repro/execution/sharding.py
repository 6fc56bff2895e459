"""Shard planning and multi-core fan-out for the execution layer.

* :class:`ShardPlanner` decides **whether** a batch fans out.  Inline is
  the one default plan: a batch forks only when the resolved
  :class:`~repro.execution.policy.ExecutionPolicy` says
  ``parallel="process"``, and then across its worker count
  (``REPRO_WORKERS`` environment override, then CPU count).  A single
  item, a single worker or a dispatch inside a worker process always runs
  inline.  No paper workload wins from forking at its own size (see
  ``docs/architecture.md``, "when ``process`` pays"), so callers with big
  batches ask for the pool themselves.
* :func:`fan_out` is the one dispatch of every sharded pipeline (task and
  grouped slot shards, sweep point blocks, seeded QEC blocks): the caller
  plans and hands over :class:`ShardGroup` units; the helper chunks and
  runs them, keeps fault reports and shard counts, and folds worker
  counters (:mod:`repro.obs`) back exactly once.
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

Determinism contract: sharding never changes results.  Expectation values
are pure functions of the task and seeded QEC blocks draw from per-block
seeds, so shard boundaries cannot move any value — ``max_workers`` of 1, 2
and 4 produce bitwise identical values (see
``benchmarks/test_parallel_speedup.py``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import numbers
import os
import signal
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor)
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .errors import ExecutionError, TransientFault

#: Environment override for the worker count (argument > env > cpu count).
WORKERS_ENV = "REPRO_WORKERS"

#: Upper bound on the default worker count (no explicit count, no
#: ``REPRO_WORKERS``).
_MAX_AUTO_WORKERS = 8

#: Set in worker processes so nested dispatches always run inline.
_WORKER_ENV = "REPRO_IN_WORKER"

#: Environment overrides for the default shard-retry policy.
SHARD_RETRIES_ENV = "REPRO_SHARD_RETRIES"
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"
SHARD_BACKOFF_ENV = "REPRO_SHARD_BACKOFF"

_PARALLEL_MODES = ("none", "process")

#: Chaos-test hook, ``None`` unless a fault-injection test installs one.
#: When set it is called as ``fault_hook(site)`` at every pooled shard
#: dispatch (``"shard"``, in the parent) and every service job checkpoint
#: (``"job"``), and returns ``None`` or a picklable no-argument callable
#: that runs where the fault lands: in the pool worker before the shard,
#: or in the job's thread.
fault_hook: Optional[Callable[[str], Optional[Callable[[], None]]]] = None


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

    mode: str  # "process" | "none"
    workers: int

    @property
    def is_parallel(self) -> bool:
        return self.mode == "process" and self.workers > 1


class ShardPlanner:
    """Plans whether an execution batch fans out across processes.

    ``parallel`` is the mode: ``"none"`` (inline, also what ``None``
    means) or ``"process"`` (the shared fork pool).  The executor builds
    one planner per dispatch from the resolved
    :class:`~repro.execution.policy.ExecutionPolicy`.  Example::

        planner = ShardPlanner(parallel="process", max_workers=4)
        assert planner.plan(num_items=64).mode == "process"
        assert ShardPlanner().plan(num_items=64).mode == "none"
    """

    def __init__(self, parallel: Optional[str] = None,
                 max_workers: Optional[int] = None):
        if parallel is not None and parallel not in _PARALLEL_MODES:
            raise ExecutionError(
                f"parallel must be one of {_PARALLEL_MODES}, got {parallel!r}")
        self.parallel = parallel or "none"
        self.max_workers = max_workers

    def plan(self, num_items: int) -> ShardPlan:
        """The :class:`ShardPlan` for a batch of ``num_items`` independent
        work units (tasks, slots, sweep points, QEC blocks)."""
        workers = resolve_workers(self.max_workers)
        if (self.parallel == "none" or in_worker_process() or workers <= 1
                or num_items < 2):
            return ShardPlan("none", 1)
        return ShardPlan("process", workers)


# ---------------------------------------------------------------------------
# The persistent process pool
# ---------------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_lock = threading.Lock()


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_CHECK_SECONDS = 1.0


def _mark_worker_process() -> None:
    """Pool initializer: mark the worker, give it default signal handling
    and end it when its parent dies.

    A forked worker inherits its parent's signal set-up: an asyncio
    server's no-op Python handlers and its loop's wakeup fd, so a SIGTERM
    sent to the worker would be ignored there and written into the
    parent's loop, which then shuts down.  The worker drops the wakeup fd
    and takes the interpreter's default SIGTERM and SIGINT handling back.

    A worker that outlives a killed parent is re-parented and keeps every
    descriptor it inherited, a server's listening socket included.  A
    daemon thread exits the worker once ``os.getppid()`` stops naming the
    parent.  (The parent's sentinel pipe cannot tell: workers forked later
    inherit each other's write ends of it.)
    """
    os.environ[_WORKER_ENV] = "1"
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parent = multiprocessing.parent_process()
    parent_pid = parent.pid if parent is not None else os.getppid()

    def exit_with_parent() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_CHECK_SECONDS)
        os._exit(1)

    threading.Thread(target=exit_with_parent, name="repro-parent-watch",
                     daemon=True).start()


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
    """What the supervisor did to finish one supervised dispatch.

    ``attempts`` counts dispatch rounds (1 = no retries), ``retried`` the
    shard indices re-dispatched (in round order, repeats possible),
    ``causes`` one human-readable cause per failed shard observation,
    ``backoff`` the inter-round sleeps taken, ``respawns`` how often the
    pool was invalidated, and ``inline_shards`` how many shards fell back
    to inline execution after the budget was exhausted.
    """

    shards: int = 0
    attempts: int = 1
    retried: List[int] = field(default_factory=list)
    causes: List[str] = field(default_factory=list)
    backoff: List[float] = field(default_factory=list)
    timeouts: int = 0
    respawns: int = 0
    inline_shards: int = 0
    #: Payload indices that fell back to inline execution.
    inline_indices: List[int] = field(default_factory=list)

    @property
    def faulted(self) -> bool:
        return bool(self.causes or self.respawns or self.inline_shards)

    def as_dict(self) -> dict:
        return {"shards": self.shards, "attempts": self.attempts,
                "retried": list(self.retried), "causes": list(self.causes),
                "backoff": list(self.backoff), "timeouts": self.timeouts,
                "respawns": self.respawns,
                "inline_shards": self.inline_shards,
                "inline_indices": list(self.inline_indices)}


def _shard_entry(fault: Optional[Callable[[], None]], fn: Callable,
                 payload: tuple):
    """Worker-side shard entry: run an injected fault, then the shard.

    The parent consults :data:`fault_hook` and embeds the (picklable)
    fault per shard, so injection needs no worker-side configuration and
    the schedule is independent of which worker picks the shard up.
    """
    if fault is not None:
        fault()
    return fn(*payload)


def _run_supervised(workers: int, fn: Callable, payloads: Sequence[tuple],
                    policy: ShardRetryPolicy, report: FaultReport,
                    on_result: Optional[Callable[[int, object], None]] = None
                    ) -> List:
    """Pooled dispatch with failure detection and shard retry.

    Per-shard seeds mean a retried shard reproduces its result bitwise, so
    retrying is always safe.  Each round submits the pending shards to the
    shared pool and waits on their futures.  Retryable causes are dead
    workers (``BrokenExecutor``, which also retires the pool), wall-clock
    timeouts (the wedged pool is retired too), and
    :class:`~repro.execution.errors.TransientFault`; any other exception
    propagates immediately — a deterministic error would fail every retry
    identically.  After ``policy.max_retries`` extra rounds the remaining
    shards run inline with their **raw** payloads (never through
    :func:`_shard_entry` — an injected ``kill`` must not execute in the
    caller's process).
    """
    results: List = [None] * len(payloads)
    pending = list(range(len(payloads)))
    retries_used = 0
    while pending:
        hook = fault_hook
        wrapped = [(hook("shard") if hook is not None else None, fn,
                    tuple(payloads[index])) for index in pending]
        failed: List[int] = []
        causes: List[str] = []
        round_respawn = False
        try:
            futures = _submit_to_pool(workers, _shard_entry, wrapped)
        except BrokenExecutor as error:
            _invalidate_pool()
            failed = list(pending)
            causes = [type(error).__name__] * len(pending)
            round_respawn = True
            futures = []
        outstanding = dict(zip(futures, pending))
        deadline = None if policy.timeout is None \
            else time.monotonic() + policy.timeout
        while outstanding:
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                # The round's wall clock is spent: every still-outstanding
                # shard is retried next round, against a fresh pool (a
                # timed-out round means a wedged worker).
                for future, index in outstanding.items():
                    future.cancel()
                    failed.append(index)
                    causes.append("timeout")
                    report.timeouts += 1
                _invalidate_pool()
                round_respawn = True
                break
            done, _ = _futures_wait(outstanding, timeout=remaining,
                                    return_when=FIRST_COMPLETED)
            for future in sorted(done, key=outstanding.__getitem__):
                index = outstanding.pop(future)
                try:
                    value = future.result()
                except BrokenExecutor as error:
                    if not round_respawn:
                        # A broken pool poisons every later submit: retire
                        # it so the next round lazily rebuilds a healthy one.
                        _invalidate_pool()
                        round_respawn = True
                    failed.append(index)
                    causes.append(type(error).__name__)
                except TransientFault as error:
                    failed.append(index)
                    causes.append(f"TransientFault: {error}")
                except BaseException:  # deterministic: propagates
                    for other in outstanding:
                        other.cancel()
                    raise
                else:
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
        if round_respawn:
            report.respawns += 1
        if not failed:
            break
        # Futures complete in any order; report in index order so recovery
        # accounting is deterministic.
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
                on_result: Optional[Callable[[int, object], None]] = None
                ) -> List:
    """Run ``fn(*payload)`` for every payload under ``plan``; results align
    with the payload order.  ``fn`` must be a module-level callable when the
    plan is parallel (it crosses the pickle boundary).

    An inline plan, or a single payload, runs in the caller.  A parallel
    plan runs supervised on the shared fork pool (see
    :func:`_run_supervised`).  ``policy`` overrides the retry budget
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
    if policy is None:
        policy = ShardRetryPolicy.from_env()
    report = FaultReport(shards=len(payloads))
    results = _run_supervised(plan.workers, fn, payloads, policy, report,
                              on_result=on_result)
    if report.faulted and on_fault is not None:
        on_fault(report)
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
    reports; the payloads handed to the process pool."""

    values: List[list]
    reports: List[FaultReport]
    process_shards: int


def _counted_shard(fn: Callable, *args) -> tuple:
    """Pool entry of :func:`fan_out`: ``(fn(*args), counter movement where
    it ran)``, the movement being that of the process-wide :mod:`repro.obs`
    counters and of the head objects' instance counters."""
    head = args[:-1]
    counters, instances = obs.read(), obs.instance_counters(head)
    value = fn(*args)
    return value, (obs.delta(counters, obs.read()),
                   obs.delta(instances, obs.instance_counters(head)))


def fan_out(executor, policy, plan: ShardPlan, groups: Sequence[ShardGroup],
            *, block: Optional[int] = None,
            on_result: Optional[Callable[[list, object], None]] = None
            ) -> FanOut:
    """Run every :class:`ShardGroup` under ``plan`` — the one path from a
    planned dispatch to :func:`run_sharded`.

    An inline plan runs each group as one chunk; a parallel plan cuts it
    into ``block``-unit blocks when given (payloads then do not depend on
    the worker count), else one chunk per worker.  ``policy`` (the
    resolved :class:`~repro.execution.policy.ExecutionPolicy`) gives the
    retry budget; ``on_result(chunk, value)`` fires as each
    chunk lands.  Fault reports and ``process_shards`` land on
    ``executor``, and the :mod:`repro.obs` counters a pool worker moved
    (the process-wide ones, the group head's instance counters) are
    folded exactly once.  A shard runs in this process, and already moved
    its counters here, only under an inline plan, as the single payload,
    or when the supervisor degraded it (:attr:`FaultReport.inline_indices`);
    those are never folded.  A worker's program-cache movement reaches
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
    values: List[list] = [[] for _ in groups]
    reports: List[FaultReport] = []
    if not plan.is_parallel or len(payloads) == 1:
        # Inline: nothing to supervise, no dispatch wait to account and no
        # counters to fold.
        for (position, piece), (fn, *args) in zip(chunks, payloads):
            value = fn(*args)
            values[position].append(value)
            if on_result is not None:
                on_result(piece, value)
        return FanOut(values, reports, 0)

    def on_fault(report: FaultReport) -> None:
        reports.append(report)
        executor.note_fault_report(report)

    landed = None
    if on_result is not None:
        def landed(index: int, envelope: tuple) -> None:
            on_result(chunks[index][1], envelope[0])
    envelopes = run_sharded(plan, _counted_shard, payloads,
                            policy=policy.retry, on_fault=on_fault,
                            on_result=landed)
    degraded = {index for report in reports
                for index in report.inline_indices}
    for index, ((position, _), (value, moved)) in enumerate(
            zip(chunks, envelopes)):
        values[position].append(value)
        if index not in degraded:
            obs.absorb(moved[0])
            obs.absorb_instances(groups[position].head, moved[1])
    with executor._lock:
        executor.stats.process_shards += len(payloads)
    return FanOut(values, reports, len(payloads))


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
