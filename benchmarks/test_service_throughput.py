"""PR-6 acceptance gate: job-server overhead and warm-path latency.

Three checks on the ``repro.service`` stack, recorded to
``BENCH_pr6.json``:

* **Socket round-trip overhead** — submitting N distinct sweep jobs over
  the unix socket (submit + wait + fetch each) must stay within a generous
  per-job overhead budget versus running the identical workloads directly
  on an in-process ``Executor``, and the values must match bitwise.
* **Warm-path latency** — resubmitting an identical job sequentially is
  served by the shared expectation cache (counter-proven per job row) and
  must be faster than the cold run.
* **Cross-client dedup** — concurrent identical submissions from several
  clients collapse to one engine execution (counter-proven via
  ``sampling_stats``).
"""

import json
import os
import tempfile
import threading
import time

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.execution import Executor
from repro.operators.pauli import PauliSum
from repro.qec.sampling import reset_sampling_stats, sampling_stats
from repro.service import (ServiceClient, ServiceConfig, start_in_thread,
                           qec_memory_payload, sweep_payload)

from conftest import full_mode

JOBS = 24 if full_mode() else 12
POINTS = 8
SEED = 20250808
#: Per-job overhead budget for the socket path (wire + registry + queue).
OVERHEAD_BUDGET_SECONDS = 0.25
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr6.json")

_RECORD = {}


def _sweep_workloads():
    theta = Parameter("theta")
    template = QuantumCircuit(3)
    template.h(0)
    template.rz(theta, 0)
    template.cx(0, 1)
    template.cx(1, 2)
    observable = PauliSum.from_label_dict({"ZZI": 1.0, "IZZ": 1.0,
                                           "XII": 0.5})
    # Distinct point grids per job: no dedup, no cache sharing between jobs.
    workloads = []
    for job in range(JOBS):
        points = [[0.01 * job + 0.1 * k] for k in range(POINTS)]
        workloads.append((template, points, observable))
    return workloads


def _service(**overrides):
    tmp = tempfile.mkdtemp(dir="/tmp", prefix="rbench")
    defaults = dict(socket_path=os.path.join(tmp, "s.sock"),
                    db_path=os.path.join(tmp, "registry.db"), workers=2)
    defaults.update(overrides)
    return start_in_thread(ServiceConfig(**defaults))


def test_socket_round_trip_overhead(table_printer):
    """N sweep jobs over the socket vs the same workloads in-process."""
    workloads = _sweep_workloads()

    with Executor(use_cache=False) as executor:
        start = time.perf_counter()
        direct = [executor.evaluate_sweep(template, points, observable)
                  for template, points, observable in workloads]
        direct_seconds = time.perf_counter() - start

    handle = _service()
    try:
        with ServiceClient(handle.socket_path) as client:
            start = time.perf_counter()
            job_ids = [client.submit(
                "sweep", sweep_payload(template, points, observable)).job_id
                for template, points, observable in workloads]
            served = [client.fetch(job_id)["energies"]
                      for job_id in job_ids]
            service_seconds = time.perf_counter() - start
    finally:
        handle.stop()

    for via_service, via_executor in zip(served, direct):
        assert via_service == list(via_executor)  # bitwise, not approx

    per_job_overhead = (service_seconds - direct_seconds) / len(workloads)
    table_printer(
        "service vs in-process (sweep jobs)",
        ("path", "jobs", "seconds", "jobs/sec"),
        [("in-process", len(workloads), f"{direct_seconds:.3f}",
          f"{len(workloads) / direct_seconds:.1f}"),
         ("unix socket", len(workloads), f"{service_seconds:.3f}",
          f"{len(workloads) / service_seconds:.1f}")])
    _RECORD["socket_round_trip"] = {
        "jobs": len(workloads),
        "points_per_job": POINTS,
        "seconds": {"in_process": direct_seconds,
                    "service": service_seconds},
        "per_job_overhead_seconds": per_job_overhead,
        "budget_seconds": OVERHEAD_BUDGET_SECONDS,
    }
    assert per_job_overhead < OVERHEAD_BUDGET_SECONDS, (
        f"per-job service overhead {per_job_overhead:.3f}s exceeds the "
        f"{OVERHEAD_BUDGET_SECONDS}s budget")


def test_warm_cache_job_latency(table_printer):
    """An identical sequential resubmission rides the shared cache."""
    template, points, observable = _sweep_workloads()[0]
    payload = sweep_payload(template, points, observable)
    handle = _service()
    try:
        with ServiceClient(handle.socket_path) as client:
            start = time.perf_counter()
            cold_id = client.submit("sweep", payload).job_id
            cold = client.fetch(cold_id)
            cold_seconds = time.perf_counter() - start

            start = time.perf_counter()
            warm_id = client.submit("sweep", payload).job_id
            warm = client.fetch(warm_id)
            warm_seconds = time.perf_counter() - start

            assert warm == cold  # same bits off the shared cache
            cold_row = client.status(cold_id)
            warm_row = client.status(warm_id)
    finally:
        handle.stop()

    assert cold_row["cache_misses"] > 0
    assert warm_row["cache_hits"] > 0
    assert warm_row["cache_misses"] < cold_row["cache_misses"]
    table_printer(
        "warm-cache job latency",
        ("run", "seconds", "cache hits", "cache misses"),
        [("cold", f"{cold_seconds:.4f}", cold_row["cache_hits"],
          cold_row["cache_misses"]),
         ("warm", f"{warm_seconds:.4f}", warm_row["cache_hits"],
          warm_row["cache_misses"])])
    _RECORD["warm_cache_job"] = {
        "seconds": {"cold": cold_seconds, "warm": warm_seconds},
        "cold_row": {"hits": cold_row["cache_hits"],
                     "misses": cold_row["cache_misses"]},
        "warm_row": {"hits": warm_row["cache_hits"],
                     "misses": warm_row["cache_misses"]},
    }


def test_cross_client_dedup_scales(table_printer):
    """Concurrent identical seeded jobs from many clients run ONCE."""
    clients = 6 if full_mode() else 4
    shots = 16384
    payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                 shots=shots, seed=SEED, chunk_blocks=4)
    handle = _service(workers=2)
    results = [None] * clients
    try:
        reset_sampling_stats()
        barrier = threading.Barrier(clients)

        def submit_and_fetch(index):
            with ServiceClient(handle.socket_path) as client:
                barrier.wait()
                job_id = client.submit("qec_memory", payload).job_id
                results[index] = client.fetch(job_id)

        threads = [threading.Thread(target=submit_and_fetch, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stats = sampling_stats()
    finally:
        handle.stop()

    assert all(result is not None for result in results)
    assert all(result == results[0] for result in results)
    # One execution's worth of sampling served every client.  (The very
    # first submission may race ahead and finish before a straggler
    # submits, costing at most one extra cached-or-fresh run; typically
    # the counter shows exactly one.)
    assert stats.shots_sampled <= 2 * shots
    table_printer(
        "cross-client dedup",
        ("clients", "experiments run", "shots sampled", "shots requested"),
        [(clients, stats.experiments, stats.shots_sampled,
          clients * shots)])
    _RECORD["cross_client_dedup"] = {
        "clients": clients,
        "shots_per_request": shots,
        "experiments_run": stats.experiments,
        "shots_sampled": stats.shots_sampled,
    }

    record = {"pr": 6,
              "benchmark": "execution job server"}
    record.update(_RECORD)
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle_file:
            json.dump(record, handle_file, indent=2, sort_keys=True)
            handle_file.write("\n")
