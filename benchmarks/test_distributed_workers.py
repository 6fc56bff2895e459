"""PR-9 acceptance gate: elastic spool workers — throughput and recovery.

Three checks on the filesystem shard broker, recorded to ``BENCH_pr9.json``:

* **Spool sweep throughput** — the same statevector parameter sweep
  dispatched through a spool served by 1, 2 and 4 ``repro-worker``
  subprocesses; every configuration must match the pooled run bitwise
  (identical point-block payloads) and the inline run to 1e-12, and the
  per-configuration shards/sec are the committed perf record.
* **Kill recovery wall-clock** — SIGKILL one of two workers mid-shard via
  the deterministic fault injector; the run must finish with the exact
  clean-run values and the recovery (lease expiry → requeue → surviving
  worker) wall-clock is recorded next to the clean run's.
* **Warm resume wall-clock** — a killed sweep simulated by flushing half
  its point blocks through the checkpoint cache; the resumed run must
  recompute only the other half (counter-proven) and its wall-clock is
  recorded next to the cold run's.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.ansatz import FullyConnectedAnsatz
from repro.execution import (ExecutionPolicy, Executor, FilesystemBroker,
                             inject_faults)
from repro.execution.broker import SpoolLayout
from repro.execution.sharding import (ShardPlanner, ShardRetryPolicy,
                                      run_sharded)
from repro.operators import ising_hamiltonian

from conftest import full_mode

QUBITS = 10 if full_mode() else 8
POINTS = 48 if full_mode() else 24
SEED = 20250808
WORKER_COUNTS = (1, 2, 4)
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr9.json")
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_RECORD = {}


def _sweep_fixture():
    template = FullyConnectedAnsatz(QUBITS, depth=1).build()
    rng = np.random.default_rng(SEED)
    points = rng.standard_normal(
        (POINTS, len(template.ordered_parameters()))).tolist()
    return template, points, ising_hamiltonian(QUBITS)


def _spawn_workers(spool, count, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return [subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--spool", os.fspath(spool),
         "--poll-interval", "0.01", *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for _ in range(count)]


def _wait_for_census(spool, count, timeout=60.0):
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
    raise AssertionError(f"{count} worker(s) never censused")


def _stop_workers(spool, procs):
    try:
        with open(SpoolLayout(spool).stop_file, "w",
                  encoding="utf-8") as handle:
            handle.write("stop")
    except OSError:
        pass
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def test_spool_sweep_throughput(tmp_path, table_printer):
    template, points, observable = _sweep_fixture()
    start = time.perf_counter()
    inline = Executor(use_cache=False).evaluate_sweep(
        template, points, observable, backend="statevector",
        policy=ExecutionPolicy(parallel="none"))
    inline_seconds = time.perf_counter() - start
    pooled = Executor(use_cache=False).evaluate_sweep(
        template, points, observable, backend="statevector",
        policy=ExecutionPolicy(parallel="process", max_workers=2))

    rows = []
    for count in WORKER_COUNTS:
        spool = tmp_path / f"spool-{count}"
        procs = _spawn_workers(spool, count, "--idle-exit", "60")
        try:
            _wait_for_census(spool, count)
            executor = Executor(use_cache=False)
            start = time.perf_counter()
            # max_workers stays fixed: it shapes the *plan*; the actual
            # concurrency is the number of attached repro-workers.
            values = executor.evaluate_sweep(
                template, points, observable, backend="statevector",
                policy=ExecutionPolicy(parallel="process", max_workers=2,
                                       broker=str(spool)))
            seconds = time.perf_counter() - start
        finally:
            _stop_workers(spool, procs)
        # Worker-count independence is exact: identical block payloads.
        assert np.array_equal(values, pooled)
        assert np.allclose(values, inline, atol=1e-12)
        shards = executor.stats.process_shards
        assert shards > 0 and seconds > 0
        rows.append((count, shards, round(seconds, 3),
                     round(shards / seconds, 1)))
        _RECORD[f"spool_sweep_{count}_workers"] = {
            "workers": count, "qubits": QUBITS, "points": POINTS,
            "shards": shards, "seconds": seconds,
            "shards_per_second": shards / seconds,
        }
    _RECORD["spool_sweep_inline"] = {"qubits": QUBITS, "points": POINTS,
                                     "seconds": inline_seconds}
    table_printer(
        f"spool sweep throughput ({QUBITS} qubits, {POINTS} points)",
        ("workers", "shards", "seconds", "shards/sec"), rows)


def test_kill_recovery_wall_clock(tmp_path):
    payloads = [(3, exponent) for exponent in range(8)]
    expected = [pow(3, exponent) for exponent in range(8)]
    plan = ShardPlanner("process", max_workers=2).plan(len(payloads),
                                                       hints=("process",))
    retry = ShardRetryPolicy(max_retries=3, backoff_base=0.0)

    def timed_run(spool, chaos):
        procs = _spawn_workers(spool, 2, "--lease-seconds", "0.5",
                               "--idle-exit", "60")
        reports = []
        try:
            _wait_for_census(spool, 2)
            broker = FilesystemBroker(spool, lease_seconds=0.5,
                                      poll_interval=0.01, steal=False)
            start = time.perf_counter()
            if chaos:
                with inject_faults("shard.kill=1/1"):
                    results = run_sharded(plan, pow, payloads, policy=retry,
                                          broker=broker,
                                          on_fault=reports.append)
            else:
                results = run_sharded(plan, pow, payloads, policy=retry,
                                      broker=broker,
                                      on_fault=reports.append)
            seconds = time.perf_counter() - start
        finally:
            _stop_workers(spool, procs)
        return results, seconds, reports

    clean, clean_seconds, clean_reports = \
        timed_run(tmp_path / "spool-clean", chaos=False)
    recovered, recovered_seconds, reports = \
        timed_run(tmp_path / "spool-chaos", chaos=True)
    assert clean == expected and recovered == expected
    assert clean_reports == []
    assert len(reports) == 1 and reports[0].lease_expiries >= 1
    _RECORD["kill_recovery"] = {
        "shards": len(payloads), "lease_seconds": 0.5,
        "clean_seconds": clean_seconds,
        "recovered_seconds": recovered_seconds,
        "lease_expiries": reports[0].lease_expiries,
    }


def test_warm_resume_wall_clock(tmp_path):
    template, points, observable = _sweep_fixture()
    half = len(points) // 2

    def policy_for(spool):
        return ExecutionPolicy(parallel="process", max_workers=2,
                               broker=str(spool))

    # Cold: the whole sweep, nothing checkpointed (parent steal path —
    # wall-clocks here compare cache states, not worker elasticity).
    cold = Executor()
    start = time.perf_counter()
    cold_values = cold.evaluate_sweep(
        template, points, observable, backend="statevector",
        policy=policy_for(tmp_path / "spool-cold"))
    cold_seconds = time.perf_counter() - start

    # "Killed" run: half the point blocks landed and were flushed through
    # the checkpoint cache before the run died.  The resume reuses the
    # executor, so its cache holds them.
    resumed = Executor()
    resumed.evaluate_sweep(
        template, points[:half], observable, backend="statevector",
        policy=policy_for(tmp_path / "spool-resume"))
    resumed.reset_stats()  # count only the resumed run's evolutions
    start = time.perf_counter()
    resumed_values = resumed.evaluate_sweep(
        template, points, observable, backend="statevector",
        policy=policy_for(tmp_path / "spool-resume"))
    resumed_seconds = time.perf_counter() - start

    # The resumed run blocks its 12 uncached points differently than the
    # cold run blocks all 24, so equality is 1e-12, not bitwise.
    assert np.allclose(resumed_values, cold_values, atol=1e-12)
    # Zero recomputation of the flushed half.
    assert resumed.stats.backend_invocations.get("statevector", 0) \
        == len(points) - half
    _RECORD["warm_resume"] = {
        "qubits": QUBITS, "points": len(points),
        "checkpointed_points": half,
        "cold_seconds": cold_seconds,
        "resumed_seconds": resumed_seconds,
        "resumed_invocations": len(points) - half,
    }

    record = {"pr": 9,
              "benchmark": "filesystem shard broker + elastic workers"}
    record.update(_RECORD)
    # The committed BENCH_pr9.json is the PR's perf record; casual local
    # runs only fill it in when it is missing.
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
