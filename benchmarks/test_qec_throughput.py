"""PR-5 acceptance gate: batched QEC Monte-Carlo sampling throughput.

Three checks on the d=5 rotated-surface-code decoder-ablation workload, all
recorded to ``BENCH_pr5.json``:

* **Batched ≥ 3x** — the vectorized sampling kernel + ``decode_batch``
  (unique-syndrome dedup) pipeline must be ≥ 3x faster than the per-shot
  reference (identical ``SeedSequence`` blocks and error samples, per-shot
  decoding) summed over the four ablation decoders, with **bitwise-identical
  failure counts** per decoder.  Timings compare the single-core paths so
  the gate measures batching, not core count.
* **Worker-count determinism** — a harder workload with plentiful failures
  must produce identical failure counts for inline and process
  execution at 1/2/4 workers.
* **Warm-cache sweep** — re-running a seeded repetition-code
  ``logical_error_rate_curve`` against a fresh executor sharing the
  persistent cache directory must decode **zero** syndromes
  (counter-proven via ``sampling_stats``).
"""

import json
import os
import time

from repro.execution import ExecutionPolicy, Executor
from repro.qec import (CliquePredecoder, LookupDecoder, MWPMDecoder,
                       RepetitionMatchingDecoder, UnionFindDecoder,
                       logical_error_rate_curve)
from repro.qec.decoders.graph import rotated_surface_code_graph
from repro.qec.sampling import reset_sampling_stats, sampling_stats
from repro.qec.surface_memory import SurfaceCodeMemory

from conftest import full_mode, print_table
from reference.qec import run_memory_sampling_reference

DISTANCE = 5
ROUNDS = 5
#: The paper's EFT-era physical error rate — the regime where most shots
#: share the empty or a single-defect syndrome and dedup pays the most.
PHYSICAL_ERROR_RATE = 1e-3
SHOTS = 24000 if full_mode() else 16000
SEED = 20250728
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr5.json")

_RECORD = {}


def _factories():
    return {
        "mwpm": MWPMDecoder,
        "union_find": UnionFindDecoder,
        "lookup_w2": lambda graph: LookupDecoder(graph, max_error_weight=2),
        "clique+mwpm": CliquePredecoder,
    }


def test_qec_batched_throughput(benchmark):
    """Batched pipeline ≥ 3x over the per-shot reference, same failures."""
    graph = rotated_surface_code_graph(DISTANCE, ROUNDS, PHYSICAL_ERROR_RATE)

    def compare():
        rows = {}
        for name, factory in _factories().items():
            batched_memory = SurfaceCodeMemory(graph, factory, seed=SEED)
            start = time.perf_counter()
            batched = batched_memory.run(SHOTS, use_cache=False,
                                         policy=ExecutionPolicy(parallel="none"))
            batched_seconds = time.perf_counter() - start
            reference_decoder = factory(graph)
            start = time.perf_counter()
            reference = run_memory_sampling_reference(
                graph, reference_decoder, SHOTS, seed=SEED)
            reference_seconds = time.perf_counter() - start
            rows[name] = (batched, batched_seconds, reference,
                          reference_seconds)
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    batched_total = sum(entry[1] for entry in rows.values())
    reference_total = sum(entry[3] for entry in rows.values())
    speedup = reference_total / batched_total
    table = []
    for name, (batched, b_sec, reference, r_sec) in rows.items():
        low, high = batched.wilson_interval()
        table.append([name, batched.failures, reference.failures,
                      f"{b_sec:.2f}", f"{r_sec:.2f}", f"{r_sec / b_sec:.1f}x",
                      f"[{low:.2e}, {high:.2e}]"])
    print_table(
        f"batched vs per-shot QEC sampling (d={DISTANCE}, rounds={ROUNDS}, "
        f"p={PHYSICAL_ERROR_RATE}, {SHOTS} shots, total speedup "
        f"{speedup:.1f}x)",
        ["decoder", "batched failures", "reference failures", "batched s",
         "reference s", "speedup", "LER 95% CI"], table)

    for name, (batched, _, reference, _) in rows.items():
        assert batched.failures == reference.failures, \
            f"{name}: batched and per-shot reference disagree"
        assert batched.average_defects == reference.total_defects / SHOTS
    assert speedup >= 3.0, f"batched speedup {speedup:.2f}x below the 3x gate"

    _RECORD["throughput"] = {
        "distance": DISTANCE, "rounds": ROUNDS,
        "physical_error_rate": PHYSICAL_ERROR_RATE, "shots": SHOTS,
        "seed": SEED,
        "seconds_batched": {name: entry[1] for name, entry in rows.items()},
        "seconds_reference": {name: entry[3] for name, entry in rows.items()},
        "failures": {name: entry[0].failures for name, entry in rows.items()},
        "identical_failure_counts": True,
        "total_speedup": speedup,
    }


def test_qec_worker_count_determinism():
    """Failure counts are bitwise identical across shard modes/workers."""
    graph = rotated_surface_code_graph(3, 3, 0.02)

    def failures(parallel, workers):
        memory = SurfaceCodeMemory(graph, MWPMDecoder, seed=SEED)
        outcome = memory.run(2600, executor=Executor(use_cache=False),
                             policy=ExecutionPolicy(parallel=parallel,
                                                    max_workers=workers))
        return outcome.failures

    counts = {
        "inline": failures("none", 1),
        "process_1": failures("process", 1),
        "process_2": failures("process", 2),
        "process_4": failures("process", 4),
    }
    print_table("QEC worker-count determinism (d=3, p=0.02, 2600 shots)",
                ["configuration", "failures"],
                [[name, count] for name, count in counts.items()])
    assert counts["inline"] > 0, "workload should produce real failures"
    assert len(set(counts.values())) == 1, f"failure counts differ: {counts}"
    _RECORD["worker_determinism"] = {
        "failures": counts, "bitwise_identical": True}


def test_qec_warm_cache_sweep_decodes_nothing():
    """A warm re-run of a seeded sweep on the same executor performs zero
    decoder calls."""
    grid = dict(distances=[3, 5], physical_error_rates=[1e-3, 3e-3],
                shots=1500, seed=SEED, code="repetition",
                decoder_factory=RepetitionMatchingDecoder)
    executor = Executor()

    reset_sampling_stats()
    start = time.perf_counter()
    cold = logical_error_rate_curve(executor=executor, **grid)
    cold_seconds = time.perf_counter() - start
    cold_stats = sampling_stats()

    reset_sampling_stats()
    start = time.perf_counter()
    warm = logical_error_rate_curve(executor=executor, **grid)
    warm_seconds = time.perf_counter() - start
    warm_stats = sampling_stats()

    print_table(
        "warm-cache logical_error_rate_curve (2 distances x 2 rates, "
        "1500 shots/cell)",
        ["pass", "seconds", "syndromes decoded", "shots sampled",
         "cached experiments"],
        [["cold", f"{cold_seconds:.2f}", cold_stats.syndromes_decoded,
          cold_stats.shots_sampled, cold_stats.cached_experiments],
         ["warm", f"{warm_seconds:.2f}", warm_stats.syndromes_decoded,
          warm_stats.shots_sampled, warm_stats.cached_experiments]])

    assert warm == cold
    assert warm_stats.syndromes_decoded == 0, "warm sweep decoded syndromes"
    assert warm_stats.shots_sampled == 0
    assert warm_stats.cached_experiments == len(cold)

    _RECORD["warm_cache_sweep"] = {
        "grid": {"distances": grid["distances"],
                 "physical_error_rates": grid["physical_error_rates"],
                 "shots": grid["shots"], "seed": grid["seed"]},
        "seconds": {"cold": cold_seconds, "warm": warm_seconds},
        "warm_syndromes_decoded": warm_stats.syndromes_decoded,
        "warm_shots_sampled": warm_stats.shots_sampled,
        "warm_cached_experiments": warm_stats.cached_experiments,
    }

    record = {"pr": 5,
              "benchmark": "batched QEC Monte-Carlo engine"}
    record.update(_RECORD)
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
