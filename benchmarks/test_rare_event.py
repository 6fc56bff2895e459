"""PR-10 acceptance gate: rare-event logical-error-rate estimation.

Three checks on the low-``p`` tail workload, all recorded to
``BENCH_pr10.json``:

* **≥ 50x decoded-shot reduction** — on the d=5 rotated surface code at
  ``p = 1e-4``, the weight-stratified estimator must reach its confidence
  interval with at least 50x fewer *decoded shots* (counter-proven via
  ``batch_decode_stats`` deltas) than a direct Monte-Carlo estimator would
  need for the same Wilson CI width.  The direct requirement is solved
  from the repo's own ``wilson_interval`` by bisection — at this operating
  point it sits in the hundreds of millions of shots, far beyond what any
  suite could decode directly, which is exactly the point of the PR.
* **Agreement with a high-shot direct reference** — at a moderate ``p``
  where direct sampling still sees failures, the weight-stratified
  estimate must agree with a high-shot direct reference within its CI.
* **Fan-out determinism** — the d=5 low-``p`` results must be bitwise
  identical across ``max_workers`` 1/2/4 on the fork pool.
"""

import json
import os
import time

from repro.execution import ExecutionPolicy, Executor
from repro.qec import (run_memory_sampling, run_rare_event_sampling)
from repro.qec.decoders import MWPMDecoder
from repro.qec.decoders.base import batch_decode_stats
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.sampling import wilson_interval

from conftest import full_mode, print_table

DISTANCE = 5
ROUNDS = 5
#: Deep in the low-p tail: a direct estimate at this operating point needs
#: ~1e8 shots before its CI tightens to anything useful.
PHYSICAL_ERROR_RATE = 1e-4
SHOTS = 8192 if full_mode() else 4096
SEED = 20250808
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_pr10.json")

_RECORD = {}


def _graph():
    return rotated_surface_code_graph(DISTANCE, ROUNDS, PHYSICAL_ERROR_RATE)


def _direct_shots_for_width(rate: float, width: float) -> int:
    """The smallest direct-sampling shot count whose Wilson CI at the
    given failure rate is no wider than ``width`` (bisection against the
    repo's own ``wilson_interval``)."""

    def width_at(shots: int) -> float:
        low, high = wilson_interval(rate * shots, shots)
        return high - low

    low, high = 1, 1
    while width_at(high) > width:
        high *= 2
        if high > 2 ** 60:  # pragma: no cover - absurd widths only
            raise AssertionError("no finite shot count reaches the width")
    while low < high:
        mid = (low + high) // 2
        if width_at(mid) > width:
            low = mid + 1
        else:
            high = mid
    return low


def test_rare_event_shot_reduction(benchmark):
    """Stratified sampling beats direct by ≥ 50x decoded shots per CI."""
    graph = _graph()

    def run():
        before = batch_decode_stats().shots_decoded
        start = time.perf_counter()
        result = run_rare_event_sampling(
            graph, MWPMDecoder(graph), SHOTS, seed=SEED,
            executor=Executor(use_cache=False))
        seconds = time.perf_counter() - start
        decoded = batch_decode_stats().shots_decoded - before
        return result, decoded, seconds

    result, decoded, seconds = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    assert decoded == SHOTS, "stratified estimator decoded off-budget"
    low, high = result.wilson_interval()
    width = high - low
    assert 0.0 < result.estimate < 1.0 and width > 0.0
    direct_needed = _direct_shots_for_width(result.estimate, width)
    reduction = direct_needed / decoded

    print_table(
        f"rare-event vs direct decoded-shot cost (d={DISTANCE}, "
        f"rounds={ROUNDS}, p={PHYSICAL_ERROR_RATE})",
        ["quantity", "value"],
        [["stratified decoded shots", decoded],
         ["logical error rate", f"{result.estimate:.3e}"],
         ["95% CI", f"[{low:.3e}, {high:.3e}]"],
         ["effective sample size", f"{result.ess:.3e}"],
         ["direct shots for same CI width", direct_needed],
         ["decoded-shot reduction", f"{reduction:.0f}x"],
         ["strata", [s.weight for s in result.strata]],
         ["seconds", f"{seconds:.2f}"]])

    assert reduction >= 50.0, (
        f"decoded-shot reduction {reduction:.1f}x below the 50x gate")

    _RECORD["shot_reduction"] = {
        "distance": DISTANCE, "rounds": ROUNDS,
        "physical_error_rate": PHYSICAL_ERROR_RATE,
        "shots": SHOTS, "seed": SEED,
        "decoded_shots": decoded,
        "logical_error_rate": result.estimate,
        "wilson_interval": [low, high],
        "effective_sample_size": result.ess,
        "direct_shots_for_same_ci_width": direct_needed,
        "shot_reduction": reduction,
        "tail_probability": result.tail_probability,
        "seconds": seconds,
    }


def test_rare_event_agrees_with_direct_reference():
    """The stratified estimate agrees with a high-shot direct reference."""
    graph = repetition_code_graph(5, 3, 0.04)
    reference_shots = 120_000 if full_mode() else 60_000
    direct = run_memory_sampling(graph, MWPMDecoder(graph), reference_shots,
                                 seed=SEED, executor=Executor(
                                     use_cache=False))
    reference_rate = direct.failures / direct.shots
    ref_low, ref_high = wilson_interval(direct.failures, direct.shots,
                                        z=3.3)

    result = run_rare_event_sampling(
        graph, MWPMDecoder(graph), SHOTS, seed=SEED + 1,
        executor=Executor(use_cache=False))
    low, high = result.wilson_interval(z=3.3)
    agrees = (low <= reference_rate <= high
              and ref_low <= result.estimate <= ref_high)

    print_table(
        f"rare-event vs {reference_shots}-shot direct reference "
        f"(d=5 repetition, p=0.04, direct rate {reference_rate:.4e})",
        ["estimate", "99.9% CI", "ESS", "agrees"],
        [[f"{result.estimate:.4e}", f"[{low:.3e}, {high:.3e}]",
          f"{result.ess:.0f}", "yes" if agrees else "NO"]])
    assert agrees, (f"stratified estimate {result.estimate:.4e} disagrees "
                    f"with direct {reference_rate:.4e} [{ref_low:.4e}, "
                    f"{ref_high:.4e}]")
    _RECORD["direct_agreement"] = {
        "reference_shots": reference_shots,
        "reference_rate": reference_rate,
        "reference_interval": [ref_low, ref_high],
        "estimate": result.estimate, "interval": [low, high],
        "ess": result.ess, "agrees": agrees,
    }


def test_rare_event_bitwise_across_workers():
    """d=5 low-p results are bitwise identical for any fan-out."""
    graph = _graph()
    shots = SHOTS // 2

    def run(policy):
        result = run_rare_event_sampling(
            graph, MWPMDecoder(graph), shots, seed=SEED,
            executor=Executor(use_cache=False), policy=policy)
        return (result.estimate, result.variance, result.ess,
                result.raw_failures, result.total_defects, result.strata)

    configurations = {
        "workers_1": ExecutionPolicy(parallel="process", max_workers=1),
        "workers_2": ExecutionPolicy(parallel="process", max_workers=2),
        "workers_4": ExecutionPolicy(parallel="process", max_workers=4),
    }
    fingerprints = {name: run(policy)
                    for name, policy in configurations.items()}

    print_table(
        f"fan-out determinism (d={DISTANCE}, p={PHYSICAL_ERROR_RATE}, "
        f"{shots} shots)",
        ["configuration", "estimate", "raw failures"],
        [[name, f"{bits[0]:.6e}", bits[3]]
         for name, bits in fingerprints.items()])
    assert len(set(fingerprints.values())) == 1, (
        f"fan-out changed the bits: {fingerprints}")
    _RECORD["fanout_determinism"] = {
        "configurations": sorted(configurations),
        "estimate": fingerprints["workers_1"][0],
        "bitwise_identical": True,
    }

    bench = {"pr": 10,
             "benchmark": "rare-event QEC estimation (low-p tail)",
             "shot_reduction": _RECORD["shot_reduction"]["shot_reduction"]}
    bench.update(_RECORD)
    if os.environ.get("REPRO_RECORD_BENCH") or not os.path.exists(
            BENCH_JSON):
        with open(BENCH_JSON, "w") as handle:
            json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
