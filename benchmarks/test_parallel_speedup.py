"""PR-4 acceptance gate: process-sharded speedup + warm-cache re-runs.

Two workloads, both recorded to ``BENCH_pr4.json``:

* **Parallel QEC memory sampling** — a d=5 rotated-surface-code memory
  experiment (5 rounds, p=0.01) decoded by union-find, 8192 shots in
  seeded blocks of :data:`repro.qec.sampling.SHOT_BLOCK`.  Every block
  draws from its own seed, so the failure count is **bitwise identical**
  for ``max_workers`` in {1, 2, 4}; on a machine with ≥ 4 usable cores the
  4-worker process-sharded run must be ≥ 2x faster than the single-worker
  run (the speedup assertion is skipped — but still measured and recorded
  — on smaller boxes, where no sharding layer could manufacture cores).
* **Warm cache** — the same seeded experiment re-run on the executor that
  ran it cold: nothing sampled or decoded, proven by the QEC sampling
  counters and the expectation cache's hit counters.

A second test runs one trimmed **figure workload** (the Fig. 12 Clifford-
scale γ comparison at 16 qubits) cold vs warm through the default executor:
the warm pass re-derives every GA generation from its cache without a
single circuit evolution.
"""

import functools
import json
import os
import time

from repro.execution import ExecutionPolicy, Executor
from repro.qec import UnionFindDecoder, rotated_surface_code_graph
from repro.qec.sampling import (reset_sampling_stats, run_memory_sampling,
                                sampling_stats)

from conftest import full_mode, print_table

DISTANCE = 5
ERROR_RATE = 0.01
SHOTS = 16384 if full_mode() else 8192
SEED = 20250704
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr4.json")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def qec_workload():
    """The decoding graph and decoder, built once so every timed run finds
    the same warm graph caches."""
    graph = rotated_surface_code_graph(DISTANCE, DISTANCE, ERROR_RATE)
    return graph, UnionFindDecoder(graph)


def run_sampling(parallel, max_workers, executor=None):
    """One seeded memory experiment on ``executor`` (default: a fresh
    uncached one); returns (result, elapsed seconds, executor)."""
    graph, decoder = qec_workload()
    executor = executor or Executor(use_cache=False)
    start = time.perf_counter()
    result = run_memory_sampling(
        graph, decoder, SHOTS, seed=SEED, executor=executor,
        policy=ExecutionPolicy(parallel=parallel, max_workers=max_workers))
    return result, time.perf_counter() - start, executor


def run_comparison():
    # Warm the persistent pool so fork cost is not billed to the 4-worker
    # timing (the pool is process-wide and amortized in real workloads).
    run_sampling("process", 4)
    serial, serial_time, _ = run_sampling("none", 1)
    two, _, _ = run_sampling("process", 2)
    quad, quad_time, quad_executor = run_sampling("process", 4)
    return serial, serial_time, two, quad, quad_time, quad_executor.stats


def test_parallel_qec_sampling_speedup(benchmark):
    serial, serial_time, two, quad, quad_time, quad_stats = \
        benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    speedup = serial_time / quad_time
    cpus = usable_cpus()
    rows = [
        ("max_workers=1 (inline)", SHOTS, f"{serial_time:.2f}",
         f"{SHOTS / serial_time:.0f}"),
        ("max_workers=4 (process)", SHOTS, f"{quad_time:.2f}",
         f"{SHOTS / quad_time:.0f}"),
    ]
    print_table(
        f"process-sharded QEC memory sampling (d={DISTANCE} surface code, "
        f"union-find, {SHOTS} shots, speedup {speedup:.2f}x on {cpus} cpus)",
        ["configuration", "shots", "seconds", "shots/sec"], rows)

    # Determinism is unconditional: per-block seeding makes the experiment
    # bitwise identical no matter how it is sharded.
    assert (serial.failures, serial.total_defects) \
        == (two.failures, two.total_defects) \
        == (quad.failures, quad.total_defects)
    assert quad_stats.process_shards >= 2

    # The ≥2x gate needs real cores; CI's ubuntu runners have 4.  On
    # smaller boxes the measurement is still recorded below.
    if cpus >= 4:
        assert speedup >= 2.0

    # Warm-cache rerun on one executor: nothing sampled or decoded, proven
    # by counters.
    cached = Executor()
    cold, _, _ = run_sampling("process", 4, executor=cached)
    assert not cold.from_cache
    hits = cached.cache_stats.hits
    reset_sampling_stats()
    warm, _, _ = run_sampling("process", 4, executor=cached)
    warm_stats = sampling_stats()
    assert warm.from_cache
    assert warm.failures == cold.failures == serial.failures
    assert warm_stats.shots_sampled == warm_stats.shots_decoded == 0
    assert warm_stats.cached_experiments == 1
    assert cached.cache_stats.hits > hits

    record = {
        "pr": 4,
        "benchmark": "process-sharded QEC memory sampling + warm cache",
        "workload": {
            "code": "rotated_surface",
            "distance": DISTANCE,
            "rounds": DISTANCE,
            "error_rate": ERROR_RATE,
            "decoder": "union_find",
            "shots": SHOTS,
            "seed": SEED,
        },
        "cpus": cpus,
        "seconds": {"max_workers_1": serial_time, "max_workers_4": quad_time},
        "speedup_4_workers": speedup,
        "bitwise_identical_across_workers": True,
        "warm_cache": {
            "warm_from_cache": warm.from_cache,
            "warm_shots_decoded": warm_stats.shots_decoded,
        },
    }
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


def test_figure_workload_cold_vs_warm():
    """One trimmed Fig.-12 instance twice: the warm pass is all cache hits.

    The workload (γ(pQEC/NISQ) for a 16-qubit Ising model, GA-optimized
    Clifford VQE) runs through the *default* executor, exactly like the
    figure suites, so both passes share its one cache.
    """
    from repro.ansatz import FullyConnectedAnsatz
    from repro.core import NISQRegime, PQECRegime
    from repro.execution import default_executor, reset_default_executor
    from repro.operators import ising_hamiltonian
    from repro.vqe import GeneticOptimizer, compare_regimes_clifford

    reset_default_executor()  # a cold cache for the first pass

    def one_instance():
        default_executor().reset_stats()  # per-pass counters, same cache
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
    reset_default_executor()  # do not leak the warm cache to other tests

    print_table(
        "fig-12 instance, cold vs warm expectation cache",
        ["pass", "seconds", "sim invocations", "term cache hits"],
        [("cold", f"{cold_time:.2f}", cold_stats.simulator_invocations,
          cold_stats.term_cache_hits),
         ("warm", f"{warm_time:.2f}", warm_stats.simulator_invocations,
          warm_stats.term_cache_hits)])
    # The warm pass replays the identical GA trajectory purely from cache.
    assert warm.gamma == cold.gamma
    assert warm.energy_a == cold.energy_a
    assert warm.energy_b == cold.energy_b
    assert warm_stats.simulator_invocations == 0
    assert warm_stats.term_cache_hits > 0
