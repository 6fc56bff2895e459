"""PR-9 acceptance gate: warm resume of a killed fork-pool sweep.

One check, recorded to ``BENCH_pr9.json``: a killed sweep is simulated by
flushing half its point blocks through the checkpoint cache; the resumed
run on the same executor must recompute only the other half
(counter-proven), and its wall-clock is recorded next to the cold run's.
"""

import json
import os
import time

import numpy as np

from repro.ansatz import FullyConnectedAnsatz
from repro.execution import ExecutionPolicy, Executor
from repro.operators import ising_hamiltonian

from conftest import full_mode

QUBITS = 10 if full_mode() else 8
POINTS = 48 if full_mode() else 24
SEED = 20250808
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr9.json")
POLICY = ExecutionPolicy(parallel="process", max_workers=2)


def _sweep_fixture():
    template = FullyConnectedAnsatz(QUBITS, depth=1).build()
    rng = np.random.default_rng(SEED)
    points = rng.standard_normal(
        (POINTS, len(template.ordered_parameters()))).tolist()
    return template, points, ising_hamiltonian(QUBITS)


def test_warm_resume_wall_clock():
    template, points, observable = _sweep_fixture()
    half = len(points) // 2

    # Cold: the whole sweep, nothing checkpointed.
    cold = Executor()
    start = time.perf_counter()
    cold_values = cold.evaluate_sweep(template, points, observable,
                                      backend="statevector", policy=POLICY)
    cold_seconds = time.perf_counter() - start

    # "Killed" run: half the point blocks landed and were flushed through
    # the checkpoint cache before the run died.  The resume reuses the
    # executor, so its cache holds them.
    resumed = Executor()
    resumed.evaluate_sweep(template, points[:half], observable,
                           backend="statevector", policy=POLICY)
    resumed.reset_stats()  # count only the resumed run's evolutions
    start = time.perf_counter()
    resumed_values = resumed.evaluate_sweep(
        template, points, observable, backend="statevector", policy=POLICY)
    resumed_seconds = time.perf_counter() - start

    # The resumed run blocks its 12 uncached points differently than the
    # cold run blocks all 24, so equality is 1e-12, not bitwise.
    assert np.allclose(resumed_values, cold_values, atol=1e-12)
    # Zero recomputation of the flushed half.
    assert resumed.stats.backend_invocations.get("statevector", 0) \
        == len(points) - half
    record = {"pr": 9,
              "benchmark": "fork-pool warm resume from the checkpoint cache",
              "warm_resume": {
                  "qubits": QUBITS, "points": len(points),
                  "checkpointed_points": half,
                  "cold_seconds": cold_seconds,
                  "resumed_seconds": resumed_seconds,
                  "resumed_invocations": len(points) - half}}
    # The committed BENCH_pr9.json is the PR's perf record; casual local
    # runs only fill it in when it is missing.
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
