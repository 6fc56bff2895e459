"""PR-4 acceptance gate: process-sharded speedup + warm-disk-cache re-runs.

Two workloads, both recorded to ``BENCH_pr4.json``:

* **Parallel trajectory ensemble** — a 16-qubit, depth-4 Clifford circuit
  under NISQ-style Pauli noise, evaluated as a seeded Monte-Carlo stabilizer
  ensemble (200 trajectories).  Per-trajectory ``SeedSequence.spawn``
  seeding makes the result **bitwise identical** for ``max_workers`` in
  {1, 2, 4}; on a machine with ≥ 4 usable cores the 4-worker process-sharded
  run must be ≥ 2x faster than the single-worker run (the speedup assertion
  is skipped — but still measured and recorded — on smaller boxes, where no
  sharding layer could manufacture cores).
* **Warm disk cache** — the same seeded ensemble re-run against a fresh
  executor sharing the persistent cache directory: zero simulator
  invocations, proven by the executor's invocation counters and the disk
  cache's hit counters.

A second test runs one trimmed **figure workload** (the Fig. 12 Clifford-
scale γ comparison at 16 qubits) cold vs warm through the default executor:
the warm pass re-derives every GA generation from the disk cache without a
single circuit evolution.
"""

import json
import os
import time


from repro.circuits.circuit import QuantumCircuit
from repro.execution import ExecutionPolicy, Executor, StabilizerBackend
from repro.operators import heisenberg_hamiltonian
from repro.simulators.noise import NoiseModel, depolarizing_channel

from conftest import full_mode, print_table

NUM_QUBITS = 16
DEPTH = 4
TRAJECTORIES = 400 if full_mode() else 200
SEED = 20250704
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr4.json")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def trajectory_workload():
    hamiltonian = heisenberg_hamiltonian(NUM_QUBITS, 1.0)
    noise = (NoiseModel("nisq-like")
             .add_gate_error(depolarizing_channel(0.01, 1), ["h", "s"])
             .add_gate_error(depolarizing_channel(0.02, 2), ["cx"])
             .add_readout_error(0.01))
    circuit = QuantumCircuit(NUM_QUBITS)
    for qubit in range(NUM_QUBITS):
        circuit.h(qubit)
    for _ in range(DEPTH):
        for qubit in range(NUM_QUBITS - 1):
            circuit.cx(qubit, qubit + 1)
        for qubit in range(NUM_QUBITS):
            circuit.s(qubit)
    return circuit, hamiltonian, noise


def run_ensemble(parallel, max_workers, cache_dir=None):
    """One seeded ensemble evaluation on a fresh executor; returns
    (energy, elapsed seconds, executor)."""
    circuit, hamiltonian, noise = trajectory_workload()
    executor = Executor(cache_dir=cache_dir) if cache_dir \
        else Executor(use_cache=False)
    start = time.perf_counter()
    [energy] = executor.evaluate_observable(
        circuit, hamiltonian, noise_model=noise,
        backend=StabilizerBackend(seed=SEED), trajectories=TRAJECTORIES,
        policy=ExecutionPolicy(parallel=parallel, max_workers=max_workers))
    return energy, time.perf_counter() - start, executor


def run_comparison():
    # Warm the persistent pool so fork cost is not billed to the 4-worker
    # timing (the pool is process-wide and amortized in real workloads).
    run_ensemble("process", 4)
    serial_energy, serial_time, _ = run_ensemble("none", 1)
    two_energy, _, _ = run_ensemble("process", 2)
    quad_energy, quad_time, quad_executor = run_ensemble("process", 4)
    return (serial_energy, serial_time, two_energy, quad_energy, quad_time,
            quad_executor.stats)


def test_parallel_trajectory_speedup(benchmark, tmp_path):
    (serial_energy, serial_time, two_energy, quad_energy, quad_time,
     quad_stats) = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    speedup = serial_time / quad_time
    cpus = usable_cpus()
    rows = [
        ("max_workers=1 (inline)", TRAJECTORIES, f"{serial_time:.2f}",
         f"{TRAJECTORIES / serial_time:.1f}"),
        ("max_workers=4 (process)", TRAJECTORIES, f"{quad_time:.2f}",
         f"{TRAJECTORIES / quad_time:.1f}"),
    ]
    print_table(
        f"process-sharded Monte-Carlo ensemble ({NUM_QUBITS}-qubit depth-"
        f"{DEPTH} Clifford, {TRAJECTORIES} trajectories, speedup "
        f"{speedup:.2f}x on {cpus} cpus)",
        ["configuration", "trajectories", "seconds", "traj/sec"], rows)

    # Determinism is unconditional: per-trajectory seed spawning makes the
    # ensemble bitwise identical no matter how it is sharded.
    assert serial_energy == two_energy == quad_energy
    assert quad_stats.process_shards >= 2

    # The ≥2x gate needs real cores; CI's ubuntu runners have 4.  On
    # smaller boxes the measurement is still recorded below.
    if cpus >= 4:
        assert speedup >= 2.0

    # Warm-disk-cache rerun: zero evolutions, proven by counters.
    cache_dir = tmp_path / "pr4-cache"
    cold_energy, _, cold_executor = run_ensemble("process", 4,
                                                 cache_dir=cache_dir)
    assert cold_executor.stats.simulator_invocations == 1
    warm_energy, _, warm_executor = run_ensemble("process", 4,
                                                 cache_dir=cache_dir)
    assert warm_energy == cold_energy == serial_energy
    assert warm_executor.stats.simulator_invocations == 0
    assert warm_executor.stats.term_cache_hits > 0
    assert warm_executor.disk_cache_stats.hits > 0

    record = {
        "pr": 4,
        "benchmark": "process-sharded Monte-Carlo ensemble + warm disk cache",
        "workload": {
            "num_qubits": NUM_QUBITS,
            "circuit_depth": DEPTH,
            "trajectories": TRAJECTORIES,
            "hamiltonian_terms":
                heisenberg_hamiltonian(NUM_QUBITS, 1.0).num_terms,
            "seed": SEED,
        },
        "cpus": cpus,
        "seconds": {"max_workers_1": serial_time, "max_workers_4": quad_time},
        "speedup_4_workers": speedup,
        "bitwise_identical_across_workers": True,
        "warm_cache": {
            "cold_invocations": cold_executor.stats.simulator_invocations,
            "warm_invocations": warm_executor.stats.simulator_invocations,
            "warm_term_cache_hits": warm_executor.stats.term_cache_hits,
            "warm_disk_hits": warm_executor.disk_cache_stats.hits,
        },
    }
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


def test_figure_workload_cold_vs_warm(tmp_path, monkeypatch):
    """One trimmed Fig.-12 instance twice: the warm pass is all cache hits.

    The workload (γ(pQEC/NISQ) for a 16-qubit Ising model, GA-optimized
    Clifford VQE) runs through the *default* executor, exactly like the
    figure suites — so this also proves ``REPRO_CACHE_DIR`` is honoured
    end-to-end without any test-side plumbing.
    """
    from repro.ansatz import FullyConnectedAnsatz
    from repro.core import NISQRegime, PQECRegime
    from repro.execution import default_executor, reset_default_executor
    from repro.operators import ising_hamiltonian
    from repro.vqe import GeneticOptimizer, compare_regimes_clifford

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "figure-cache"))

    def one_instance():
        reset_default_executor()  # fresh memory cache, same disk dir
        hamiltonian = ising_hamiltonian(16, 1.0)
        ansatz = FullyConnectedAnsatz(16, 1)
        outcome = compare_regimes_clifford(
            hamiltonian, ansatz, PQECRegime(), NISQRegime(),
            optimizer_factory=lambda: GeneticOptimizer(
                seed=123, population_size=10, generations=4),
            benchmark_name="pr4_cold_warm", seed=123,
            reoptimize_under_noise=False)
        stats = default_executor().stats
        return outcome["comparison"], stats

    start = time.perf_counter()
    cold, cold_stats = one_instance()
    cold_time = time.perf_counter() - start
    assert cold_stats.simulator_invocations > 0

    start = time.perf_counter()
    warm, warm_stats = one_instance()
    warm_time = time.perf_counter() - start
    reset_default_executor()  # do not leak the cache dir to other tests

    print_table(
        "fig-12 instance, cold vs warm DiskExpectationCache",
        ["pass", "seconds", "sim invocations", "term cache hits"],
        [("cold", f"{cold_time:.2f}", cold_stats.simulator_invocations,
          cold_stats.term_cache_hits),
         ("warm", f"{warm_time:.2f}", warm_stats.simulator_invocations,
          warm_stats.term_cache_hits)])
    # The warm pass replays the identical GA trajectory purely from disk.
    assert warm.gamma == cold.gamma
    assert warm.energy_a == cold.energy_a
    assert warm.energy_b == cold.energy_b
    assert warm_stats.simulator_invocations == 0
    assert warm_stats.term_cache_hits > 0
