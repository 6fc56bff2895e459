"""Distributed shard brokers (PR 9): ExecutionPolicy + spool semantics.

The broker seam keeps one invariant sacred: values are bitwise independent
of *where* shards run.  That makes every distributed scenario testable by
exact equality — the suite covers:

* :class:`ExecutionPolicy` — legacy-keyword coercion, resolution order,
  the single ``from_env`` reader, the wire (payload) form, and the
  ``max_workers <= 0`` bugfix (ValueError, never a silent clamp);
* :func:`make_broker` — spec resolution (None/"local"/path/"spool:PATH"/
  instance passthrough) and rejection of junk;
* spool mechanics — atomic claim-by-rename under thread contention,
  lease expiry and requeue (with the injected fault directive stripped),
  the claimed-without-lease grace period, result files surviving ``ack``
  (the warm-resume checkpoint) but not ``nack``;
* the parent's work-stealing path (a spool with zero workers drains);
* elastic ``repro-worker`` subprocesses — a two-worker sweep bitwise
  equal to the pooled run and 1e-12-equal to inline, a SIGKILLed worker
  mid-shard whose lease expires and whose shard another worker finishes
  (counted in the FaultReport), and a killed sweep resuming warm from the
  checkpoint cache with zero recomputation of flushed points.

Stolen shards run in the parent, so their decoder and decode counters are
counted once, like an inline shard's (``tests/test_qec_sampling.py``).
"""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz
from repro.execution import (ExecutionError, ExecutionPolicy, Executor,
                             FilesystemBroker, LocalProcessBroker,
                             ShardRetryPolicy, ShardSpec, TransientFault,
                             inject_faults, make_broker, resolve_workers)
from repro.execution.broker import BROKER_SPOOL_ENV, SpoolLayout
from repro.execution.sharding import (SHARD_RETRIES_ENV, WORKERS_ENV,
                                      ShardPlanner, run_sharded)
from repro.operators import ising_hamiltonian
from repro.worker import WorkerAgent

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"deterministic failure for {value}")


_FLAKY_CALLS = {"count": 0}


def _flaky_square(value):
    """Fails transiently once; runs in-parent via the broker steal path,
    so the module-global attempt counter is visible to the test."""
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] == 1:
        raise TransientFault("first attempt fails")
    return value * value


def _process_plan(workers, items):
    return ShardPlanner(max_workers=workers).plan(items, hints=("process",),
                                                  parallel="process")


def _fast_policy(**overrides):
    defaults = dict(max_retries=3, backoff_base=0.0)
    defaults.update(overrides)
    return ShardRetryPolicy(**defaults)


def _sweep_fixture(num_qubits=4, points=24, seed=7):
    template = FullyConnectedAnsatz(num_qubits, depth=1).build()
    rng = np.random.default_rng(seed)
    parameter_sets = rng.standard_normal(
        (points, len(template.ordered_parameters()))).tolist()
    return template, parameter_sets, ising_hamiltonian(num_qubits)


def _spawn_worker(spool, *extra):
    """One elastic repro-worker subprocess attached to ``spool``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--spool", os.fspath(spool),
         "--poll-interval", "0.01", *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _wait_for_census(spool, count, timeout=60.0):
    """Block until ``count`` workers have censused (imports are slow)."""
    layout = SpoolLayout(spool)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            names = [name for name in os.listdir(layout.workers)
                     if name.endswith(".json")]
        except FileNotFoundError:
            names = []
        if len(names) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"{count} worker(s) never appeared in the census")


def _stop_workers(spool, procs):
    layout = SpoolLayout(spool)
    try:
        with open(layout.stop_file, "w", encoding="utf-8") as handle:
            handle.write("stop")
    except OSError:
        pass
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _census(spool):
    layout = SpoolLayout(spool)
    records = []
    for name in sorted(os.listdir(layout.workers)):
        if name.endswith(".json"):
            with open(os.path.join(layout.workers, name),
                      encoding="utf-8") as handle:
                records.append(json.load(handle))
    return records


# ---------------------------------------------------------------------------
# ExecutionPolicy
# ---------------------------------------------------------------------------


class TestExecutionPolicy:

    def test_kwargs_win_over_policy(self):
        base = ExecutionPolicy(parallel="none", max_workers=3)
        coerced = ExecutionPolicy.coerce(base, parallel="process")
        assert coerced.parallel == "process"
        assert coerced.max_workers == 3

    def test_coerce_accepts_payload_dict(self):
        coerced = ExecutionPolicy.coerce({"parallel": "thread"},
                                         max_workers=2)
        assert coerced == ExecutionPolicy(parallel="thread", max_workers=2)

    def test_invalid_parallel_mode_rejected(self):
        with pytest.raises(ExecutionError, match="parallel"):
            ExecutionPolicy(parallel="bogus")

    def test_retry_type_checked(self):
        with pytest.raises(ExecutionError, match="ShardRetryPolicy"):
            ExecutionPolicy(retry=5)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_zero_or_negative_workers_rejected(self, workers):
        # The bugfix: an explicit nonsense worker count is an error that
        # names the env-var escape hatch, never a silent clamp to 1.
        with pytest.raises(ValueError, match=WORKERS_ENV):
            ExecutionPolicy(max_workers=workers)

    def test_zero_workers_rejected_everywhere(self):
        with pytest.raises(ValueError, match="max_workers"):
            Executor(max_workers=0)
        with pytest.raises(ValueError):
            resolve_workers(0)
        template, points, observable = _sweep_fixture(num_qubits=2, points=2)
        with pytest.raises(ValueError, match="max_workers"):
            Executor(use_cache=False).evaluate_sweep(
                template, points, observable, backend="statevector",
                max_workers=-1)

    def test_from_env_reads_all_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WORKERS_ENV, "3")
        monkeypatch.setenv(BROKER_SPOOL_ENV, str(tmp_path / "spool"))
        monkeypatch.setenv(SHARD_RETRIES_ENV, "5")
        policy = ExecutionPolicy.from_env()
        assert policy.max_workers == 3
        assert policy.broker == str(tmp_path / "spool")
        assert policy.retry.max_retries == 5

    def test_from_env_rejects_zero_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            ExecutionPolicy.from_env()

    def test_merged_over_precedence(self):
        call = ExecutionPolicy(parallel="process")
        base = ExecutionPolicy(parallel="none", max_workers=4,
                               broker="local")
        merged = call.merged_over(base)
        assert merged.parallel == "process"  # the more specific layer wins
        assert merged.max_workers == 4       # unset fields fall through
        assert merged.broker == "local"

    def test_payload_round_trip(self):
        policy = ExecutionPolicy(
            parallel="process", max_workers=2, broker="spool:/tmp/q",
            retry=ShardRetryPolicy(max_retries=7, backoff_base=0.0,
                                   backoff_cap=1.0, timeout=9.0))
        assert ExecutionPolicy.from_payload(policy.to_payload()) == policy

    def test_payload_drops_live_broker_instance(self, tmp_path):
        policy = ExecutionPolicy(broker=FilesystemBroker(tmp_path / "s"))
        assert "broker" not in policy.to_payload()

    def test_from_payload_rejects_unknown_keys(self):
        with pytest.raises(ExecutionError, match="unknown"):
            ExecutionPolicy.from_payload({"parallelism": 4})
        with pytest.raises(ExecutionError, match="unknown"):
            ExecutionPolicy.from_payload({"retry": {"attempts": 2}})


# ---------------------------------------------------------------------------
# make_broker
# ---------------------------------------------------------------------------


class TestMakeBroker:

    def test_default_is_local(self):
        assert isinstance(make_broker(None, 2), LocalProcessBroker)
        assert isinstance(make_broker("local", 2), LocalProcessBroker)
        assert make_broker(None, 2).name == "local"

    def test_path_string_is_filesystem(self, tmp_path):
        broker = make_broker(str(tmp_path / "spool"), 2)
        assert isinstance(broker, FilesystemBroker)
        assert broker.spool == str(tmp_path / "spool")

    def test_spool_prefix_and_pathlike(self, tmp_path):
        broker = make_broker("spool:" + str(tmp_path / "a"), 2)
        assert broker.spool == str(tmp_path / "a")
        assert isinstance(make_broker(tmp_path / "b", 2), FilesystemBroker)

    def test_instance_passes_through(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "spool")
        assert make_broker(broker, 4) is broker

    def test_junk_rejected(self):
        with pytest.raises(ExecutionError):
            make_broker(42, 2)


# ---------------------------------------------------------------------------
# spool mechanics (in-process)
# ---------------------------------------------------------------------------


class TestSpoolMechanics:

    def test_claim_is_atomic_under_contention(self, tmp_path):
        spool = tmp_path / "spool"
        broker = FilesystemBroker(spool, steal=False)
        specs = [ShardSpec(i, _square, (i,)) for i in range(24)]
        submitted = broker.submit(specs)
        claimed, lock = [], threading.Lock()

        def worker(identity):
            agent = WorkerAgent(spool, worker_id=f"claimant-{identity}")
            while True:
                shard_id = agent._claim_one()
                if shard_id is None:
                    return
                with lock:
                    claimed.append(shard_id)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every task claimed exactly once: rename has exactly one winner.
        assert sorted(claimed) == sorted(submitted)
        assert len(set(claimed)) == len(specs)
        assert SpoolLayout(spool).pending_task_ids() == []

    def test_lease_expiry_requeues_and_strips_directive(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "spool", lease_seconds=0.2,
                                  steal=False)
        [shard_id] = broker.submit(
            [ShardSpec(0, _square, (3,), directive="chaos-kill")])
        layout = broker.layout
        envelope = layout.load_envelope(layout.task(shard_id))
        assert envelope["directive"] == "chaos-kill"
        # A claimant takes the task, leases it, then dies (lease in the
        # past, never renewed).
        os.rename(layout.task(shard_id), layout.claim(shard_id))
        layout.write_lease(shard_id, "ghost", -1.0)
        assert broker.heartbeat() == [shard_id]
        # Requeued for the next claimant — without the kill directive, so
        # a chaos fault fires once instead of killing every claimant.
        assert os.path.exists(layout.task(shard_id))
        assert not os.path.exists(layout.claim(shard_id))
        assert layout.load_envelope(layout.task(shard_id))["directive"] \
            is None

    def test_claim_without_lease_gets_grace_period(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "spool", lease_seconds=0.3,
                                  steal=False)
        [shard_id] = broker.submit([ShardSpec(0, _square, (2,))])
        layout = broker.layout
        os.rename(layout.task(shard_id), layout.claim(shard_id))
        # Claimed, lease not yet written: the claimant gets one lease
        # period before being declared dead.
        assert broker.heartbeat() == []
        time.sleep(0.4)
        assert broker.heartbeat() == [shard_id]

    def test_result_survives_ack_for_warm_resume(self, tmp_path):
        spool = tmp_path / "spool"
        broker = FilesystemBroker(spool)  # steal: parent computes
        [shard_id] = broker.submit([ShardSpec(0, _square, (9,))])
        [outcome] = broker.poll(10.0)
        assert outcome.ok and outcome.value == 81
        broker.ack(shard_id)
        layout = SpoolLayout(spool)
        results = os.listdir(layout.results)
        assert len(results) == 1  # the content-named checkpoint stays
        # An identical resubmission (same fn, same payload → same digest)
        # is served from the persisted result without recomputing: no
        # stealing, no workers, still instantly done.
        warm = FilesystemBroker(spool, steal=False)
        [resumed_id] = warm.submit([ShardSpec(0, _square, (9,))])
        [cached] = warm.poll(10.0)
        assert cached.ok and cached.value == 81
        assert warm.stolen == 0
        warm.ack(resumed_id)

    def test_nack_drops_the_result(self, tmp_path):
        spool = tmp_path / "spool"
        broker = FilesystemBroker(spool)
        [shard_id] = broker.submit([ShardSpec(0, _square, (5,))])
        assert broker.poll(10.0)[0].ok
        broker.nack(shard_id, "timeout")
        assert os.listdir(SpoolLayout(spool).results) == []


# ---------------------------------------------------------------------------
# run_sharded over a FilesystemBroker (parent steal path)
# ---------------------------------------------------------------------------


class TestRunShardedFilesystem:

    def test_spool_with_no_workers_drains_by_stealing(self, tmp_path):
        payloads = [(value,) for value in range(8)]
        broker = FilesystemBroker(tmp_path / "spool", poll_interval=0.01)
        results = run_sharded(_process_plan(2, len(payloads)), _square,
                              payloads, policy=_fast_policy(),
                              broker=broker)
        assert results == [value * value for value in range(8)]
        assert broker.stolen == len(payloads)

    def test_transient_fault_retried_and_reported(self, tmp_path):
        _FLAKY_CALLS["count"] = 0
        reports = []
        broker = FilesystemBroker(tmp_path / "spool", poll_interval=0.01)
        results = run_sharded(_process_plan(2, 3), _flaky_square,
                              [(1,), (2,), (3,)], policy=_fast_policy(),
                              broker=broker, on_fault=reports.append)
        assert results == [1, 4, 9]
        assert len(reports) == 1
        assert reports[0].broker == "filesystem"
        assert any(cause.startswith("TransientFault")
                   for cause in reports[0].causes)

    def test_clean_run_stays_callback_free(self, tmp_path):
        reports = []
        broker = FilesystemBroker(tmp_path / "spool", poll_interval=0.01)
        run_sharded(_process_plan(2, 3), _square, [(1,), (2,), (3,)],
                    policy=_fast_policy(), broker=broker,
                    on_fault=reports.append)
        assert reports == []

    def test_deterministic_error_propagates(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "spool", poll_interval=0.01)
        with pytest.raises(ValueError, match="deterministic"):
            run_sharded(_process_plan(2, 3), _boom, [(1,), (2,), (3,)],
                        policy=_fast_policy(), broker=broker)


# ---------------------------------------------------------------------------
# elastic repro-worker subprocesses
# ---------------------------------------------------------------------------


class TestElasticWorkers:

    def test_two_worker_sweep_matches_pooled_and_inline(self, tmp_path):
        template, points, observable = _sweep_fixture()
        inline = Executor(use_cache=False).evaluate_sweep(
            template, points, observable, backend="statevector",
            parallel="none")
        pooled = Executor(use_cache=False).evaluate_sweep(
            template, points, observable, backend="statevector",
            parallel="process", max_workers=2)
        spool = tmp_path / "spool"
        procs = [_spawn_worker(spool, "--idle-exit", "30")
                 for _ in range(2)]
        try:
            _wait_for_census(spool, 2)
            brokered = Executor(use_cache=False).evaluate_sweep(
                template, points, observable, backend="statevector",
                policy=ExecutionPolicy(parallel="process", max_workers=2,
                                       broker=str(spool)))
        finally:
            _stop_workers(spool, procs)
        # Point blocks depend only on qubit/point counts, so pooled and
        # spool-brokered dispatch submit byte-identical shard payloads:
        # the results are bitwise equal, and both match inline to 1e-12.
        assert np.array_equal(brokered, pooled)
        assert np.allclose(brokered, inline, atol=1e-12)
        census = _census(spool)
        assert len(census) == 2
        # The workers (not the parent steal path) did all twelve blocks.
        assert sum(record["shards_done"] for record in census) == 12

    def test_sigkilled_worker_lease_expires_and_run_recovers(self, tmp_path):
        spool = tmp_path / "spool"
        payloads = [(2, exponent) for exponent in range(6)]
        procs = [_spawn_worker(spool, "--lease-seconds", "0.5",
                               "--idle-exit", "30") for _ in range(2)]
        reports = []
        try:
            _wait_for_census(spool, 2)
            broker = FilesystemBroker(spool, lease_seconds=0.5,
                                      poll_interval=0.01, steal=False)
            with inject_faults("shard.kill=1/1"):
                results = run_sharded(_process_plan(2, len(payloads)), pow,
                                      payloads, policy=_fast_policy(),
                                      broker=broker,
                                      on_fault=reports.append)
        finally:
            _stop_workers(spool, procs)
        # The SIGKILLed worker's shard was requeued on lease expiry and
        # finished (directive stripped) by the surviving worker — bitwise
        # the same answer, and the expiry shows up in the FaultReport.
        assert results == [pow(2, exponent) for exponent in range(6)]
        assert len(reports) == 1
        assert reports[0].broker == "filesystem"
        assert reports[0].lease_expiries >= 1
        # Exactly one worker died: one exited cleanly via the stop file.
        exit_codes = sorted(proc.returncode for proc in procs)
        assert exit_codes.count(0) == 1

    def test_killed_sweep_resumes_warm_from_checkpoint_cache(self, tmp_path):
        template, points, observable = _sweep_fixture()
        inline = Executor(use_cache=False).evaluate_sweep(
            template, points, observable, backend="statevector",
            parallel="none")
        cache_dir = tmp_path / "cache"
        spool = tmp_path / "spool"
        policy = ExecutionPolicy(parallel="process", max_workers=2,
                                 broker=str(spool))
        # A "killed" multi-worker run: only half the sweep's blocks landed
        # (and were flushed through the disk cache) before it died.
        Executor(cache_dir=str(cache_dir)).evaluate_sweep(
            template, points[:12], observable, backend="statevector",
            policy=policy)
        # Resume against the same spool + cache: the flushed points are
        # served from the checkpoint cache, only the rest is computed.
        resumed = Executor(cache_dir=str(cache_dir))
        values = resumed.evaluate_sweep(template, points, observable,
                                        backend="statevector", policy=policy)
        assert np.allclose(values, inline, atol=1e-12)
        assert resumed.stats.backend_invocations.get("statevector", 0) == 12
        assert resumed.stats.term_cache_hits > 0
        # A full re-run recomputes nothing at all.
        rerun = Executor(cache_dir=str(cache_dir))
        again = rerun.evaluate_sweep(template, points, observable,
                                     backend="statevector", policy=policy)
        assert np.array_equal(again, values)
        assert rerun.stats.backend_invocations == {}
        assert rerun.stats.process_shards == 0
