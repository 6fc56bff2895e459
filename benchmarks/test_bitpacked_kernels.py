"""PR-7 acceptance gate: bit-packed mod-2 kernels and bounded-memory sampling.

Two checks, recorded to ``BENCH_pr7.json``:

* **Packed ≥ 2x** — on the d=9 EFT-regime workload (16384 shots), the
  bit-packed syndrome-extraction + dedup kernel
  (:class:`~repro.qec.bitops.Mod2GatherPlan` gather matmul + packed-word
  dedup) must be ≥ 2x faster than the dense float32 GEMM + byte-row
  ``np.unique`` it replaced, **and** ``run_memory_sampling``,
  ``stream_memory_sampling`` and the dense per-shot
  ``run_memory_sampling_reference`` must produce bitwise-identical
  failure and defect counts (same Bernoulli draw stream by construction).
* **d=15 fits** — an 8-round d=15 surface-code ``run_memory_sampling``
  (32768 shots, union-find), whose shard decodes its blocks in
  byte-bounded groups, must stay under the documented
  :data:`STREAM_BUDGET_BYTES` tracemalloc peak.  A dense batch path
  cannot hold this workload inside the budget even analytically: the
  ``(shots, n_edges)`` error matrix alone is ~91 MiB and the float32
  syndrome intermediate another ~126 MiB, both far beyond the 24 MiB
  budget the grouped loop is held to.

Timings compare single-core paths; the gate measures the kernel, not
core count.
"""

import json
import os
import time
import tracemalloc

import numpy as np

from repro.execution import ExecutionPolicy, Executor
from repro.qec.bitops import popcount_impl
from repro.qec.decoders import MWPMDecoder, UnionFindDecoder
from repro.qec.decoders.base import _dedup_packed
from repro.qec.decoders.graph import rotated_surface_code_graph
from repro.qec.sampling import (packed_syndromes_and_flips,
                                run_memory_sampling, sample_errors,
                                sampling_arrays, stream_memory_sampling)

from conftest import full_mode, print_table
from reference.qec import run_memory_sampling_reference, syndromes_and_flips

DISTANCE = 9
ROUNDS = 9
#: EFT-regime physical error rate: most shots share a handful of syndromes.
PHYSICAL_ERROR_RATE = 2e-4
SHOTS = 16384
KERNEL_REPEATS = 5 if full_mode() else 3
SEED = 20250808

STREAM_DISTANCE = 15
STREAM_ROUNDS = 8
STREAM_ERROR_RATE = 1e-4
STREAM_SHOTS = 32768
#: Documented tracemalloc peak budget for the d=15 grouped-decode run.
STREAM_BUDGET_BYTES = 24 * 2**20

BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr7.json")

_RECORD = {}


def _dense_kernel(arrays, errors):
    """The legacy path: float32 GEMM syndromes + byte-row unique dedup."""
    syndromes, flips = syndromes_and_flips(arrays, errors)
    unique, first, inverse = np.unique(syndromes, axis=0,
                                       return_index=True,
                                       return_inverse=True)
    return unique.shape[0], int(flips.sum())


def _packed_kernel(arrays, errors):
    """The PR-7 path: gather-plan packed syndromes + packed-word dedup."""
    words, flips = packed_syndromes_and_flips(arrays, errors)
    unique, first, inverse = _dedup_packed(words)
    return unique.shape[0], int(flips.sum())


def _best_of(repeats, fn, *args):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_packed_kernel_speedup(benchmark):
    """Packed extraction+dedup ≥ 2x dense, identical end-to-end counts."""
    graph = rotated_surface_code_graph(DISTANCE, ROUNDS, PHYSICAL_ERROR_RATE)
    arrays = sampling_arrays(graph)
    errors = sample_errors(arrays, SHOTS, np.random.default_rng(SEED))

    def compare():
        dense_seconds, dense_out = _best_of(KERNEL_REPEATS, _dense_kernel,
                                            arrays, errors)
        packed_seconds, packed_out = _best_of(KERNEL_REPEATS, _packed_kernel,
                                              arrays, errors)
        return dense_seconds, dense_out, packed_seconds, packed_out

    dense_seconds, dense_out, packed_seconds, packed_out = \
        benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = dense_seconds / packed_seconds
    assert packed_out == dense_out, "kernel outputs disagree"

    # End-to-end: all three execution paths, bitwise-identical counts.
    *_, streamed = stream_memory_sampling(graph, MWPMDecoder(graph), SHOTS,
                                          seed=SEED,
                                          executor=Executor(use_cache=False))
    runs = {"dense": run_memory_sampling_reference(graph, MWPMDecoder(graph),
                                                   SHOTS, seed=SEED),
            "packed": run_memory_sampling(graph, MWPMDecoder(graph), SHOTS,
                                          seed=SEED,
                                          executor=Executor(use_cache=False),
                                          policy=ExecutionPolicy(parallel="none")),
            "streaming": streamed}
    counts = {mode: (run.failures, run.total_defects)
              for mode, run in runs.items()}

    print_table(
        f"bit-packed syndrome kernel (d={DISTANCE}, rounds={ROUNDS}, "
        f"p={PHYSICAL_ERROR_RATE}, {SHOTS} shots, popcount="
        f"{popcount_impl()})",
        ["path", "kernel s", "speedup", "failures", "defects"],
        [["dense f32 GEMM (reference)", f"{dense_seconds:.3f}", "1.0x",
          counts["dense"][0], counts["dense"][1]],
         ["packed gather", f"{packed_seconds:.3f}", f"{speedup:.1f}x",
          counts["packed"][0], counts["packed"][1]],
         ["packed streamed", "-", "-",
          counts["streaming"][0], counts["streaming"][1]]])

    assert len(set(counts.values())) == 1, f"paths disagree: {counts}"
    assert speedup >= 2.0, \
        f"packed kernel speedup {speedup:.2f}x below the 2x gate"

    _RECORD["packed_kernel"] = {
        "distance": DISTANCE, "rounds": ROUNDS,
        "physical_error_rate": PHYSICAL_ERROR_RATE, "shots": SHOTS,
        "seed": SEED,
        "seconds_dense": dense_seconds,
        "seconds_packed": packed_seconds,
        "speedup": speedup,
        "popcount_impl": popcount_impl(),
        "failures": counts["packed"][0],
        "total_defects": counts["packed"][1],
        "identical_counts_across_paths": True,
    }


def test_streaming_d15_fits_memory_budget():
    """d=15 run under the documented 24 MiB tracemalloc budget."""
    graph = rotated_surface_code_graph(STREAM_DISTANCE, STREAM_ROUNDS,
                                       STREAM_ERROR_RATE)
    arrays = sampling_arrays(graph)  # incidence + gather plan, pre-trace
    decoder = UnionFindDecoder(graph)

    dense_errors_bytes = STREAM_SHOTS * arrays.num_edges          # uint8
    dense_syndromes_bytes = STREAM_SHOTS * arrays.num_detectors * 4  # f32
    assert dense_errors_bytes + dense_syndromes_bytes > STREAM_BUDGET_BYTES, \
        "dense workload no longer exceeds the budget; retire this gate"

    tracemalloc.start()
    start = time.perf_counter()
    run = run_memory_sampling(graph, decoder, STREAM_SHOTS, seed=SEED,
                              executor=Executor(use_cache=False),
                              policy=ExecutionPolicy(parallel="none"))
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print_table(
        f"d={STREAM_DISTANCE} grouped-decode memory (rounds={STREAM_ROUNDS}, "
        f"p={STREAM_ERROR_RATE}, {STREAM_SHOTS} shots, union-find)",
        ["quantity", "value"],
        [["edges / detectors", f"{arrays.num_edges} / {arrays.num_detectors}"],
         ["dense error matrix", f"{dense_errors_bytes / 2**20:.1f} MiB"],
         ["dense f32 syndromes", f"{dense_syndromes_bytes / 2**20:.1f} MiB"],
         ["tracemalloc peak", f"{peak / 2**20:.1f} MiB"],
         ["budget", f"{STREAM_BUDGET_BYTES / 2**20:.0f} MiB"],
         ["failures / defects", f"{run.failures} / {run.total_defects}"],
         ["seconds", f"{seconds:.1f}"]])

    assert peak < STREAM_BUDGET_BYTES, \
        f"peak {peak / 2**20:.1f} MiB over the 24 MiB budget"

    _RECORD["streaming_d15"] = {
        "distance": STREAM_DISTANCE, "rounds": STREAM_ROUNDS,
        "physical_error_rate": STREAM_ERROR_RATE, "shots": STREAM_SHOTS,
        "seed": SEED,
        "num_edges": arrays.num_edges,
        "num_detectors": arrays.num_detectors,
        "tracemalloc_peak_bytes": peak,
        "budget_bytes": STREAM_BUDGET_BYTES,
        "dense_errors_bytes": dense_errors_bytes,
        "dense_syndromes_bytes": dense_syndromes_bytes,
        "failures": run.failures,
        "total_defects": run.total_defects,
        "seconds": seconds,
    }

    record = {"pr": 7,
              "benchmark": "bit-packed mod-2 kernels + streaming sampling"}
    record.update(_RECORD)
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
