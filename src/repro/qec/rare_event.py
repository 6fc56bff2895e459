"""Rare-event logical-error-rate estimation for the low-``p`` tail.

The paper's EFT-era claims live where logical failures are rare: a direct
Monte-Carlo estimate of a logical error rate of ~1e-6 at ``p`` ≈ 1e-4 needs
~1e8 decoded shots before the confidence interval says anything.  This
module attacks the exponent instead of the constant with **weight-stratified
subset sampling** over the same edge-Bernoulli error model the direct
sampler (:mod:`repro.qec.sampling`) draws from.

Shots are conditioned on the total error weight ``w`` (number of flipped
edges).  Each stratum's probability ``P(W = w)`` is *exact*: a binomial when
every edge shares one rate, a Poisson-binomial dynamic program otherwise.
Strata below the decoder's minimum fault weight — a minimum-weight decoder
cannot fail on fewer than ``⌈d/2⌉`` errors — are skipped as exact zeros, and
the decode budget is spent adaptively where the variance is: a pilot round
measures each stratum's conditional failure rate, the remainder allocates
by Neyman weights ``P_w · √(f_w(1 − f_w))``.  Conditional fixed-weight
samples are drawn exactly (no rejection) with the suffix-probability table
of the same dynamic program, so heterogeneous edge rates are handled
without approximation.  The interval is an **effective-n Wilson interval**
(the Wilson score formula evaluated at the direct-sample count that would
match the estimator's variance).

The estimator rides the direct sampler's engine end to end: the per-graph
:class:`~repro.qec.sampling.SamplingArrays`, the bit-packed syndrome
kernel, per-block ``SeedSequence.spawn`` seeding (blocks — never workers —
are the determinism unit), and the seeded-block run
(:class:`~repro.qec.sampling._SeededRun`) that owns shard dispatch,
worker-counter fold-back and expectation-cache checkpointing (full-run
keys, plus per-chunk keys in :func:`stream_rare_event_sampling`).  This
module supplies only the spec, the per-block sampling body and the fold.
Blocks return integer counts, so how blocks are grouped onto workers or
chunks can never move a bit of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitops import popcount
from .decoders.base import batch_decode_packed
from .decoders.graph import DecodingGraph
from .decoders.mwpm import MWPMDecoder
from .sampling import (SHOT_BLOCK, SamplingArrays, SeedLike, _SeededRun,
                       _shot_blocks, packed_syndromes_and_flips,
                       sampling_arrays, wilson_interval)

__all__ = [
    "RareEventResult", "StratumResult", "effective_wilson_interval",
    "minimum_fault_weight", "run_rare_event_sampling",
    "stream_rare_event_sampling", "stratum_probabilities",
]

# ---------------------------------------------------------------------------
# Stratum probabilities (pure math, no sampling)
# ---------------------------------------------------------------------------


def stratum_probabilities(probabilities: np.ndarray,
                          max_weight: int) -> Tuple[np.ndarray, float]:
    """``(P, tail)``: exact ``P[w] = P(total weight = w)`` for
    ``w = 0..max_weight`` plus the truncated tail mass ``P(W > max_weight)``.

    One Poisson-binomial dynamic program over the edges (``O(n·max_weight)``)
    — with homogeneous rates it reduces to the exact binomial.  Truncation
    is exact for the kept bins: in the forward recurrence probability only
    flows *upward* in weight, so dropping bins above ``max_weight`` cannot
    perturb the bins below.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    max_weight = int(max_weight)
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    dist = np.zeros(max_weight + 1, dtype=np.float64)
    dist[0] = 1.0
    for rate in probabilities:
        keep = dist * (1.0 - rate)
        keep[1:] += dist[:-1] * rate
        dist = keep
    tail = max(0.0, 1.0 - math.fsum(dist.tolist()))
    return dist, tail


def minimum_fault_weight(graph: DecodingGraph, decoder) -> int:
    """The smallest error weight that can defeat ``decoder`` on ``graph``.

    For :class:`~repro.qec.decoders.MWPMDecoder` on a graph whose edges all
    share one weight this is ``⌈d/2⌉``: any failing shot satisfies
    ``|error| + |correction| ≥ d`` (the error plus the correction close a
    logical-class cycle, whose weight is at least the code distance) and a
    minimum-weight correction never weighs more than the error that
    produced its syndrome.  No other decoder keeps that promise —
    union-find can fail below ``⌈d/2⌉``, and
    ``LookupDecoder(max_error_weight=w)`` at ``w + 1`` — and with mixed
    edge weights a minimum-weight correction may use more edges than the
    error, so everything else starts at weight 1.
    """
    if isinstance(decoder, MWPMDecoder) and \
            len({edge.weight for edge in graph.edges}) == 1:
        return (int(graph.distance) + 1) // 2
    return 1


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def effective_wilson_interval(estimate: float, variance: float,
                              z: float = 1.96,
                              tail: float = 0.0) -> Tuple[float, float]:
    """Wilson score interval at the *effective* sample count.

    ``n_eff = p̂(1 − p̂) / Var[p̂]`` is the direct-sample shot count whose
    binomial estimator would match this estimator's variance; evaluating
    the Wilson formula at ``(p̂·n_eff, n_eff)`` keeps the interval inside
    ``[0, 1]`` and honest near zero, exactly like the direct sampler's
    :func:`~repro.qec.sampling.wilson_interval`.  ``tail`` (an upper bound
    on truncation bias, e.g. the skipped stratum mass) widens the upper
    edge only.
    """
    estimate = float(estimate)
    if variance <= 0.0:
        return (max(0.0, estimate), min(1.0, estimate + tail))
    clipped = min(max(estimate, 1e-300), 1.0 - 1e-12)
    n_eff = clipped * (1.0 - clipped) / float(variance)
    low, high = wilson_interval(estimate * n_eff, n_eff, z=z)
    return (low, min(1.0, high + float(tail)))


@dataclass(frozen=True)
class StratumResult:
    """One weight stratum of a stratified run: its exact probability mass
    and the conditional Monte-Carlo evidence collected in it."""

    weight: int
    probability: float
    shots: int
    failures: int

    @property
    def conditional_failure_rate(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def contribution(self) -> float:
        """This stratum's share of the logical-error-rate estimate."""
        return self.probability * self.conditional_failure_rate


@dataclass(frozen=True)
class RareEventResult:
    """Outcome of a rare-event estimation run.

    ``shots`` counts *decoded* shots (the cost the estimator is judged
    by); ``estimate`` is the logical-error-rate estimate with estimator
    ``variance`` and effective sample size ``ess``; ``raw_failures`` counts
    the decoder disagreements actually observed (diagnostics — under the
    stratum conditioning they are *not* an error-rate numerator).
    ``strata`` carries the per-stratum breakdown and ``tail_probability``
    bounds the bias of skipping strata above the truncation weight.
    """

    shots: int
    estimate: float
    variance: float
    ess: float
    raw_failures: int
    total_defects: int
    from_cache: bool
    strata: Tuple[StratumResult, ...]
    tail_probability: float

    @property
    def logical_error_rate(self) -> float:
        """Alias for :attr:`estimate` (mirrors ``SamplingRun``)."""
        return self.estimate

    @property
    def standard_error(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Effective-n Wilson interval (truncation tail widens the top)."""
        return effective_wilson_interval(self.estimate, self.variance, z=z,
                                         tail=self.tail_probability)


# ---------------------------------------------------------------------------
# The resolved run specification (shared by batch + streaming paths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RareEventSpec:
    """Everything derived from the arguments before any sampling happens.

    The spec is a pure function of (graph, decoder, knobs) — building it
    twice yields identical values, which is what lets the cache keys and
    the resumed streaming path agree with the original run.
    """

    strata: Tuple[int, ...]
    stratum_probability: Dict[int, float]
    tail: float
    pilot_shots: int
    token: tuple


def _resolve_spec(graph: DecodingGraph, decoder, arrays: SamplingArrays,
                  shots: int, min_fault_weight_arg, max_weight_arg,
                  pilot_shots: int, tail_rtol: float) -> _RareEventSpec:
    n_edges = arrays.num_edges
    min_fault = (minimum_fault_weight(graph, decoder)
                 if min_fault_weight_arg is None
                 else int(min_fault_weight_arg))
    if not 1 <= min_fault <= n_edges:
        raise ValueError(f"min_fault_weight must lie in [1, {n_edges}], "
                         f"got {min_fault}")
    if max_weight_arg is None:
        # Extend the truncation weight until the dropped tail is a
        # negligible fraction of the covered stratum mass (deterministic:
        # depends only on the edge rates).
        max_weight = min_fault
        ceiling = min(n_edges, min_fault + 16)
        while max_weight < ceiling:
            dist, tail = stratum_probabilities(arrays.probabilities,
                                               max_weight)
            covered = math.fsum(dist[min_fault:].tolist())
            if tail <= tail_rtol * covered:
                break
            max_weight += 1
    else:
        max_weight = int(max_weight_arg)
        if max_weight < min_fault:
            raise ValueError(
                f"max_weight ({max_weight}) must be >= the minimum fault "
                f"weight ({min_fault})")
        max_weight = min(max_weight, n_edges)
    dist, tail = stratum_probabilities(arrays.probabilities, max_weight)
    strata = tuple(w for w in range(min_fault, max_weight + 1)
                   if dist[w] > 0.0)
    if not strata:
        raise ValueError(
            f"no stratum in [{min_fault}, {max_weight}] has positive "
            f"probability — the error model cannot reach the fault weight")
    pilot = max(1, min(int(pilot_shots), int(shots) // (2 * len(strata))))
    return _RareEventSpec(
        strata=strata,
        stratum_probability={w: float(dist[w]) for w in strata}, tail=tail,
        pilot_shots=pilot, token=("stratified", min_fault, max_weight, pilot))


def rare_event_knobs(graph: DecodingGraph, decoder, shots: int, *,
                     min_fault_weight: Optional[int] = None,
                     max_weight: Optional[int] = None,
                     pilot_shots: int = SHOT_BLOCK,
                     tail_rtol: float = 1e-3) -> tuple:
    """The estimator knobs of :func:`run_rare_event_sampling` as resolved
    for ``(graph, decoder, shots)``: the first and last stratum weights and
    the per-stratum pilot size (the spec's cache-key token), then
    ``tail_rtol``.  Two argument sets with equal knobs run the same
    estimate, whether a default was named or left unset; knobs no estimate
    can run are a ``ValueError``."""
    spec = _resolve_spec(graph, decoder, sampling_arrays(graph), shots,
                         min_fault_weight, max_weight, pilot_shots,
                         tail_rtol)
    return spec.token + (float(tail_rtol),)


# ---------------------------------------------------------------------------
# Conditional fixed-weight sampling (exact, DP-based — no rejection)
# ---------------------------------------------------------------------------


def _conditional_include_table(probabilities: np.ndarray,
                               weight: int) -> np.ndarray:
    """``(n_edges, weight + 1)`` inclusion probabilities for exact
    fixed-weight sampling.

    Entry ``[i, k]`` is ``P(edge i flips | k errors remain among edges
    i..n−1)`` — ``p_i · T[i+1, k−1] / T[i, k]`` with the suffix table
    ``T[i, k] = P(edges i.. carry exactly k errors)``.  Sampling edges in
    order with these probabilities draws a subset of size exactly
    ``weight`` from the true conditional distribution (uniform over
    subsets when the rates are homogeneous, rate-weighted
    otherwise), with no rejection loop.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    n = probabilities.size
    weight = int(weight)
    table = np.zeros((n + 1, weight + 1), dtype=np.float64)
    table[n, 0] = 1.0
    for i in range(n - 1, -1, -1):
        rate = probabilities[i]
        table[i] = table[i + 1] * (1.0 - rate)
        table[i, 1:] += table[i + 1, :-1] * rate
    include = np.zeros((n, weight + 1), dtype=np.float64)
    for i in range(n):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(table[i, 1:] > 0.0,
                             probabilities[i] * table[i + 1, :-1]
                             / table[i, 1:], 0.0)
        include[i, 1:] = np.clip(ratio, 0.0, 1.0)
        # Forced inclusions: as many errors left as edges — float division
        # may land a hair under 1.0, which would strand a shot above
        # weight 0 at the end.
        forced = np.arange(weight + 1) >= (n - i)
        include[i, forced & (np.arange(weight + 1) > 0)] = 1.0
    return include


def _sample_fixed_weight(arrays: SamplingArrays, weight: int, shots: int,
                         rng: np.random.Generator,
                         include: np.ndarray) -> np.ndarray:
    """``(shots, n_edges)`` error matrix with exactly ``weight`` flips/row.

    Consumes one ``rng.random((shots, n_edges))`` draw — the same stream
    shape as the direct sampler — and walks the edges once, vectorized
    over shots.
    """
    n = arrays.num_edges
    draws = rng.random((int(shots), n))
    remaining = np.full(int(shots), int(weight), dtype=np.int64)
    errors = np.zeros((int(shots), n), dtype=np.uint8)
    for i in range(n):
        flip = draws[:, i] < include[i, remaining]
        errors[:, i] = flip
        remaining -= flip
    return errors


# ---------------------------------------------------------------------------
# The per-block sampling body (module-level: pickles by reference)
# ---------------------------------------------------------------------------


def _rare_event_blocks(graph: DecodingGraph, decoder,
                       units: Sequence[Tuple[int, np.random.SeedSequence,
                                             int]]) -> List[Dict]:
    """Sample + decode stratified blocks; one count dict per block.

    Each unit is ``(stratum weight, block seed, block shots)``: a block
    conditioned on that exact error weight.  Blocks are never folded here,
    so the caller groups them by stratum.
    """
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    include_tables: Dict[int, np.ndarray] = {}
    blocks: List[Dict] = []
    for weight, seed_child, block_shots in units:
        include = include_tables.get(int(weight))
        if include is None:
            include = _conditional_include_table(arrays.probabilities,
                                                 int(weight))
            include_tables[int(weight)] = include
        errors = _sample_fixed_weight(arrays, int(weight), block_shots,
                                      np.random.default_rng(seed_child),
                                      include)
        words, flips = packed_syndromes_and_flips(arrays, errors)
        failures = (batch_decode_packed(decoder, words, detectors)
                    != flips.astype(bool))
        blocks.append({"weight": int(weight), "shots": int(block_shots),
                       "defects": int(popcount(words)),
                       "failures": int(failures.sum())})
    return blocks


#: Per-block (and per streamed chunk) counts — the checkpoint components
#: of a streamed chunk.
_STRATUM_SUMS = ("failures", "defects", "shots")


# ---------------------------------------------------------------------------
# Folding block counts
# ---------------------------------------------------------------------------


def _count(blocks: Sequence[Dict], name: str) -> int:
    """Exact total of an integer field (replayed checkpoints hold floats)."""
    return int(round(math.fsum(block[name] for block in blocks)))


def _fold(blocks: Sequence[Dict], spec: _RareEventSpec) -> RareEventResult:
    """The stratified estimate from per-block (or per-chunk) counts — all
    integers, so order cannot matter."""
    by_weight: Dict[int, List[Dict]] = {w: [] for w in spec.strata}
    for block in blocks:
        by_weight[block["weight"]].append(block)
    strata = tuple(
        StratumResult(weight=w, probability=spec.stratum_probability[w],
                      shots=_count(by_weight[w], "shots"),
                      failures=_count(by_weight[w], "failures"))
        for w in spec.strata)
    estimate = math.fsum(s.contribution for s in strata)
    # Laplace-smoothed conditional rates for the variance only: a stratum
    # with zero observed failures still carries nonzero uncertainty.
    variance = math.fsum(
        s.probability * s.probability
        * ((s.failures + 1) / (s.shots + 2))
        * (1.0 - (s.failures + 1) / (s.shots + 2)) / s.shots
        for s in strata if s.shots > 0)
    clipped = min(max(estimate, 1e-300), 1.0 - 1e-12)
    ess = clipped * (1.0 - clipped) / variance if variance > 0.0 else 0.0
    return RareEventResult(
        shots=sum(s.shots for s in strata),
        estimate=estimate, variance=variance, ess=ess,
        raw_failures=sum(s.failures for s in strata),
        total_defects=_count(blocks, "defects"), from_cache=False,
        strata=strata, tail_probability=spec.tail)


def _allocate_main_shots(spec: _RareEventSpec,
                         pilot: Dict[int, Tuple[int, int]],
                         budget: int) -> Dict[int, int]:
    """Neyman allocation of the post-pilot budget.

    ``score_w = P_w · √(f̃_w (1 − f̃_w))`` with Laplace-smoothed pilot
    rates ``f̃ = (failures + 1)/(shots + 2)`` (a zero-failure pilot must
    not zero a stratum out — its rate is merely *small*).  Largest-
    remainder rounding keeps the total exactly ``budget`` and is a pure
    function of integers, so every worker layout allocates identically.
    """
    scores = {}
    for weight in spec.strata:
        shots, failures = pilot[weight]
        smoothed = (failures + 1) / (shots + 2)
        scores[weight] = (spec.stratum_probability[weight]
                          * math.sqrt(smoothed * (1.0 - smoothed)))
    total = math.fsum(scores.values())
    if total <= 0.0 or budget <= 0:
        return {weight: 0 for weight in spec.strata}
    raw = {weight: budget * scores[weight] / total for weight in spec.strata}
    allocation = {weight: int(raw[weight]) for weight in spec.strata}
    shortfall = budget - sum(allocation.values())
    remainders = sorted(spec.strata,
                        key=lambda w: (raw[w] - allocation[w], -w),
                        reverse=True)
    for weight in remainders[:shortfall]:
        allocation[weight] += 1
    return allocation


def _main_allocation(spec: _RareEventSpec, pilot_blocks: Sequence[Dict],
                     shots: int) -> Dict[int, int]:
    """Allocate what the pilot blocks left of the ``shots`` budget."""
    pilot = {s.weight: (s.shots, s.failures)
             for s in _fold(pilot_blocks, spec).strata}
    budget = int(shots) - sum(count for count, _ in pilot.values())
    return _allocate_main_shots(spec, pilot, budget)


# ---------------------------------------------------------------------------
# Cached result components
# ---------------------------------------------------------------------------


_SCALAR_COMPONENTS = ("estimate", "variance", "ess", "raw", "defects")


def _result_names(spec: _RareEventSpec) -> tuple:
    return _SCALAR_COMPONENTS + tuple(
        ("stratum", weight, field) for weight in spec.strata
        for field in ("shots", "failures"))


def _result_values(result: RareEventResult) -> Dict:
    values = dict(zip(_SCALAR_COMPONENTS,
                      (result.estimate, result.variance, result.ess,
                       result.raw_failures, result.total_defects)))
    for stratum in result.strata:
        values["stratum", stratum.weight, "shots"] = stratum.shots
        values["stratum", stratum.weight, "failures"] = stratum.failures
    return values


def _cached_result(values: Dict, spec: _RareEventSpec,
                   shots: int) -> RareEventResult:
    strata = tuple(StratumResult(
        weight=weight, probability=spec.stratum_probability[weight],
        shots=int(round(values["stratum", weight, "shots"])),
        failures=int(round(values["stratum", weight, "failures"])))
        for weight in spec.strata)
    return RareEventResult(
        shots=int(shots),
        estimate=float(values["estimate"]),
        variance=float(values["variance"]), ess=float(values["ess"]),
        raw_failures=int(round(values["raw"])),
        total_defects=int(round(values["defects"])), from_cache=True,
        strata=strata, tail_probability=spec.tail)


# ---------------------------------------------------------------------------
# Work-unit construction (the seed-spawning contract)
# ---------------------------------------------------------------------------


def _stratum_blocks(child: np.random.SeedSequence, shots: int
                    ) -> List[Tuple[np.random.SeedSequence, int]]:
    """Deterministic per-stratum blocks (same shape as ``_shot_blocks``)."""
    return _shot_blocks(child, shots) if shots > 0 else []


def _stratum_children(seed_sequence: np.random.SeedSequence,
                      spec: _RareEventSpec) -> Dict[int, tuple]:
    """Per-stratum ``(pilot child, main child)`` seed pairs.

    The spawn layout depends only on the stratum list, which is resolved
    from the graph and the knobs before any sampling — so pilot draws are
    unchanged by how the main budget ends up allocated.
    """
    children = seed_sequence.spawn(2 * len(spec.strata))
    return {weight: (children[2 * index], children[2 * index + 1])
            for index, weight in enumerate(spec.strata)}


def _rare_run(graph: DecodingGraph, decoder, shots: int, seed: SeedLike,
              executor, use_cache: Optional[bool],
              knobs: tuple) -> Tuple[_SeededRun, _RareEventSpec]:
    spec = _resolve_spec(graph, decoder, sampling_arrays(graph), shots,
                         *knobs)
    run = _SeededRun("qec-rare", graph, decoder, shots, seed, executor,
                     use_cache, extra=(spec.token,))
    return run, spec


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_rare_event_sampling(graph: DecodingGraph, decoder, shots: int, *,
                            seed: SeedLike = None,
                            executor=None,
                            use_cache: Optional[bool] = None,
                            policy=None,
                            min_fault_weight: Optional[int] = None,
                            max_weight: Optional[int] = None,
                            pilot_shots: int = SHOT_BLOCK,
                            tail_rtol: float = 1e-3) -> RareEventResult:
    """Estimate the logical error rate by weight-stratified sampling.

    ``shots`` is the **decode budget** — the estimator decodes exactly this
    many shots, which is the axis the benchmark gate compares against
    direct sampling.  Shots are conditioned on total error weight: strata
    below ``min_fault_weight`` (default :func:`minimum_fault_weight`,
    ``⌈d/2⌉`` for MWPM on a uniform-weight graph, else 1) are exact zeros
    and never decoded, ``max_weight`` truncates the scored range (default:
    extend until the dropped tail is below ``tail_rtol`` of the covered
    mass), and the budget is spent pilot-then-Neyman across strata.

    Execution mirrors :func:`~repro.qec.sampling.run_memory_sampling`:
    blocks of :data:`~repro.qec.sampling.SHOT_BLOCK` shots seeded by
    ``SeedSequence.spawn`` children are the determinism unit, shards run
    through the executor's planner and fork pool, and seeded runs cache
    their aggregates in the executor's expectation cache under keys that
    encode none of the fan-out choices.  Results are **bitwise
    identical** for any worker count, inline or on the fork pool: blocks
    return integer counts, which fold exactly.
    """
    run, spec = _rare_run(graph, decoder, shots, seed, executor, use_cache,
                          (min_fault_weight, max_weight, pilot_shots,
                           tail_rtol))
    hit = run.cached(_result_names(spec))
    if hit is not None:
        return _cached_result(hit, spec, run.shots)
    children = _stratum_children(run.seed_sequence, spec)

    def sample(phase: int, allocation: Dict[int, int]) -> List[Dict]:
        units = [(weight, child, block_shots) for weight in spec.strata
                 for child, block_shots in _stratum_blocks(
                     children[weight][phase], allocation[weight])]
        shards = run.dispatch(policy, _rare_event_blocks, units)
        return [block for blocks in shards for block in blocks]

    blocks = sample(0, dict.fromkeys(spec.strata, spec.pilot_shots))
    blocks += sample(1, _main_allocation(spec, blocks, shots))
    result = replace(_fold(blocks, spec), shots=run.shots)
    run.finish(_result_values(result))
    return result


def stream_rare_event_sampling(graph: DecodingGraph, decoder, shots: int, *,
                               seed: SeedLike = None,
                               executor=None,
                               chunk_blocks: int = 4,
                               use_cache: Optional[bool] = None,
                               min_fault_weight: Optional[int] = None,
                               max_weight: Optional[int] = None,
                               pilot_shots: int = SHOT_BLOCK,
                               tail_rtol: float = 1e-3):
    """Generator variant of :func:`run_rare_event_sampling` with partials.

    Yields cumulative :class:`RareEventResult` snapshots after every
    ``chunk_blocks`` sampling blocks — the service layer streams
    per-stratum partials and running effective-n Wilson intervals from
    these.  Sampling happens inline (streaming is about latency, not
    throughput), and seeded runs **checkpoint every chunk** through the
    executor's expectation cache exactly like
    :func:`~repro.qec.sampling.stream_memory_sampling`: a resumed run on
    the same executor — a retried service job, a re-run after an
    interrupted stream — replays flushed chunks without sampling or decoding
    and produces snapshots bitwise identical to an uninterrupted run.

    The final snapshot writes the same full-run cache entries
    :func:`run_rare_event_sampling` uses, so batch and streaming runs warm
    each other, and it equals the batch result bitwise for any
    ``chunk_blocks``: every aggregate is an integer count.
    """
    run, spec = _rare_run(graph, decoder, shots, seed, executor, use_cache,
                          (min_fault_weight, max_weight, pilot_shots,
                           tail_rtol))
    if chunk_blocks < 1:
        raise ValueError("chunk_blocks must be a positive integer")
    hit = run.cached(_result_names(spec))
    if hit is not None:
        yield _cached_result(hit, spec, run.shots)
        return

    chunks: List[Dict] = []

    def phase(name: str, weight: int, block_seeds):
        """Stream one phase's chunks, yielding the running snapshot."""

        def compute(chunk) -> Dict[str, int]:
            blocks = _rare_event_blocks(graph, decoder,
                                        [(weight, child, block_shots)
                                         for child, block_shots in chunk])
            return {component: sum(block[component] for block in blocks)
                    for component in _STRATUM_SUMS}

        for _, values in run.checkpointed(block_seeds, chunk_blocks,
                                          _STRATUM_SUMS, compute,
                                          (name, int(weight))):
            chunks.append(dict(values, weight=weight))
            yield _fold(chunks, spec)

    children = _stratum_children(run.seed_sequence, spec)
    for weight in spec.strata:
        yield from phase("pilot", weight, _stratum_blocks(
            children[weight][0], spec.pilot_shots))
    allocation = _main_allocation(spec, chunks, shots)
    for weight in spec.strata:
        yield from phase("main", weight, _stratum_blocks(
            children[weight][1], allocation[weight]))
    run.finish(_result_values(_fold(chunks, spec)))
