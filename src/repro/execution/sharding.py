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
  runs them, keeps shard and recovery counts, and folds worker counters
  (:mod:`repro.obs`) back exactly once.
* :func:`run_sharded` executes shard payloads on one persistent process
  pool, reused across calls so fork/spawn cost is paid once per process,
  not once per batch.  It has one recovery rule and no retry budget: a
  pool found broken at submit is rebuilt once before the batch goes in,
  and a shard whose worker dies mid-run retires the pool, then it and
  every shard not yet collected rerun in the caller.  Per-shard seeding
  makes a rerun bitwise identical.
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
import ctypes
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor)
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .errors import ExecutionError

#: Environment override for the worker count (argument > env > cpu count).
WORKERS_ENV = "REPRO_WORKERS"

#: Upper bound on the default worker count (no explicit count, no
#: ``REPRO_WORKERS``).
_MAX_AUTO_WORKERS = 8

#: Set in worker processes so nested dispatches always run inline.
_WORKER_ENV = "REPRO_IN_WORKER"

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


#: Thread-count ``(setter, getter)`` symbols of the OpenBLAS builds numpy
#: and scipy wheels load (``scipy_openblas64_`` is numpy's ILP64 build).
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))


def _loaded_openblas() -> List[Tuple[Callable, Callable]]:
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS this process
    has loaded, found in its memory map; empty where there is no
    ``/proc/self/maps`` or no library exports a known symbol pair."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = dict.fromkeys(
                line.split()[-1] for line in maps
                if "openblas" in line.rsplit("/", 1)[-1])
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _BLAS_THREAD_SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                found.append((getattr(library, setter),
                              getattr(library, getter)))
                break
    return found


def _mark_worker_process() -> None:
    """Pool initializer: mark the worker, give it default signal handling,
    one BLAS thread, and end it when its parent dies.

    Every pool worker is one of ``max_workers`` processes sharing the
    machine's CPUs, so a BLAS call inside it runs on one thread: with
    OpenBLAS's default thread count, workers oversubscribe the CPUs.

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
    for set_num_threads, _ in _loaded_openblas():
        set_num_threads(1)
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


def _submit_to_pool(workers: int, fn: Callable, payloads: Sequence[tuple]
                    ) -> Tuple[ProcessPoolExecutor, List, int]:
    """Create/grow the shared pool and submit one batch atomically; returns
    the pool, the futures and how many broken pools were retired first.

    The pool is persistent across dispatches so fork/spawn cost is paid
    once per process, and it only ever *grows*.  Submission happens under
    the pool lock, so a concurrent caller growing the pool can never
    observe a half-submitted batch or reject a submit; a retired (smaller)
    pool is shut down **without cancelling** its queued futures — work
    already submitted to it runs to completion and its workers exit
    afterwards.  A pool found broken here (a worker died since the last
    dispatch) is retired and rebuilt once, and the whole batch goes into
    the new one: no shard has run yet, so nothing is lost.

    Note the fork caveat: where the fork start method is used, the first
    pool creation should not race user threads holding locks (the standard
    CPython fork-with-threads hazard).  The executor's own dispatch modes
    are mutually exclusive per call, and pools are created lazily on the
    first process-mode plan.
    """
    global _pool, _pool_workers
    with _pool_lock:
        for respawns in (0, 1):
            if _pool is None or _pool_workers < workers:
                if _pool is not None:
                    _pool.shutdown(wait=False)
                _pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=_pool_context(),
                    initializer=_mark_worker_process)
                _pool_workers = workers
            futures: List = []
            try:
                for payload in payloads:
                    futures.append(_pool.submit(fn, *payload))
            except BrokenExecutor:
                if respawns:
                    raise
                for future in futures:
                    future.cancel()
                _pool.shutdown(wait=False, cancel_futures=True)
                _pool = None
                _pool_workers = 0
                continue
            return _pool, futures, respawns


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


def _retire_pool(pool: ProcessPoolExecutor) -> int:
    """Retire ``pool`` after one of its workers died; 1 if it was still the
    shared pool, 0 if another dispatch already replaced it.

    A ``BrokenProcessPool`` is permanent — every later submit raises — so
    the broken object must never be left in the module global: resetting
    ``_pool``/``_pool_workers`` here is what lets the next dispatch lazily
    build a healthy pool.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not pool:
            return 0
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0
        return 1


atexit.register(shutdown_process_pool)


# ---------------------------------------------------------------------------
# Pooled dispatch and its one recovery rule
# ---------------------------------------------------------------------------


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


def run_sharded(plan: ShardPlan, fn: Callable, payloads: Sequence[tuple],
                on_result: Optional[Callable[[int, object], None]] = None,
                stats=None) -> List:
    """Run ``fn(*payload)`` for every payload on the shared fork pool,
    across ``plan.workers`` workers; results align with the payload order.
    ``fn`` must be a module-level callable (it crosses the pickle
    boundary).  :func:`fan_out` runs inline plans itself and hands only
    parallel ones here.

    Every shard is submitted once, to a pool rebuilt first if it was
    found broken (:func:`_submit_to_pool`).  The one recovery rule: a
    shard whose worker died (``BrokenExecutor`` from its future) retires
    the pool, and that shard and every shard not yet collected rerun here
    with their raw payloads — never through :func:`_shard_entry`, so an
    injected ``kill`` cannot reach this process.  Per-shard seeding makes
    a rerun bitwise identical.  Any other exception propagates at once: a deterministic
    error would fail a rerun identically.  ``on_result(index, value)``
    fires as each shard's result lands (in completion order), which is
    what lets callers checkpoint partial progress.  ``stats`` (an
    :class:`~repro.execution.executor.ExecutionStats`), when given, counts
    the recoveries: ``pool_respawns`` (broken pools retired) and
    ``degraded_shards`` (shards rerun here).  There are no rounds, no
    backoff, no deadline and no retry budget.
    """
    if not payloads:
        return []
    hook = fault_hook
    wrapped = [(hook("shard") if hook is not None else None, fn,
                tuple(payload)) for payload in payloads]
    pool, futures, respawns = _submit_to_pool(plan.workers, _shard_entry,
                                              wrapped)
    results: List = [None] * len(payloads)
    outstanding = dict(zip(futures, range(len(payloads))))
    rerun: List[int] = []
    while outstanding and not rerun:
        done, _ = _futures_wait(outstanding, return_when=FIRST_COMPLETED)
        for future in sorted(done, key=outstanding.__getitem__):
            index = outstanding.pop(future)
            try:
                value = future.result()
            except BrokenExecutor:
                rerun.append(index)
                continue
            except BaseException:  # deterministic: propagates
                for other in outstanding:
                    other.cancel()
                raise
            results[index] = value
            if on_result is not None:
                on_result(index, value)
    if rerun:
        respawns += _retire_pool(pool)
        for future in outstanding:
            future.cancel()
        rerun = sorted(rerun + list(outstanding.values()))
        for index in rerun:
            results[index] = fn(*payloads[index])
            if on_result is not None:
                on_result(index, results[index])
    if stats is not None:
        obs.bump(stats, "pool_respawns", respawns)
        obs.bump(stats, "degraded_shards", len(rerun))
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
    """Per group, each chunk's value in unit order; the payloads handed to
    the process pool."""

    values: List[list]
    process_shards: int


def _counted_shard(fn: Callable, *args) -> tuple:
    """Pool entry of :func:`fan_out`: ``(fn(*args), counter movement)``.

    In a pool worker the movement is that of the process-wide
    :mod:`repro.obs` counters and of the head objects' instance counters;
    a shard rerun in the caller already moved its counters there, so its
    movement is None.
    """
    if not in_worker_process():
        return fn(*args), None
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

    An inline plan runs each group as one chunk in this process; a
    parallel plan cuts it into ``block``-unit blocks when given (payloads
    then do not depend on the worker count), else one chunk per worker.
    ``on_result(chunk, value)`` fires as each chunk lands.
    ``process_shards`` and the pool's recoveries land on ``executor``'s
    stats, and the :mod:`repro.obs` counters a pool worker moved (the
    process-wide ones, the group head's instance counters) are folded
    exactly once: only the envelopes that carry a movement are folded.
    A worker's program-cache movement reaches ``ExecutionStats`` through
    the caller's ``track_program_cache`` window.  ``policy`` is the
    resolved :class:`~repro.execution.policy.ExecutionPolicy` the plan
    came from.
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
    if not plan.is_parallel or len(payloads) == 1:
        # Inline: no dispatch wait to account and no counters to fold.
        for (position, piece), (fn, *args) in zip(chunks, payloads):
            value = fn(*args)
            values[position].append(value)
            if on_result is not None:
                on_result(piece, value)
        return FanOut(values, 0)

    landed = None
    if on_result is not None:
        def landed(index: int, envelope: tuple) -> None:
            on_result(chunks[index][1], envelope[0])
    envelopes = run_sharded(plan, _counted_shard, payloads,
                            on_result=landed, stats=executor.stats)
    for (position, _), (value, moved) in zip(chunks, envelopes):
        values[position].append(value)
        if moved is not None:
            obs.absorb(moved[0])
            obs.absorb_instances(groups[position].head, moved[1])
    with executor._lock:
        executor.stats.process_shards += len(payloads)
    return FanOut(values, len(payloads))


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
