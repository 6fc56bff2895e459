"""Rare-event logical-error-rate estimation for the low-``p`` tail.

The paper's EFT-era claims live where logical failures are rare: a direct
Monte-Carlo estimate of a logical error rate of ~1e-6 at ``p`` ≈ 1e-4 needs
~1e8 decoded shots before the confidence interval says anything.  This
module attacks the exponent instead of the constant with two
variance-reduction estimators over the same edge-Bernoulli error model the
direct sampler (:mod:`repro.qec.sampling`) draws from:

**Exponentially tilted importance sampling** (``method="importance"``) —
errors are drawn from a per-edge *tilted* distribution ``q`` instead of the
physical ``p``, and every shot is reweighted by its likelihood ratio

.. code-block:: text

    log w(e) = Σ_i  e_i · (log p_i − log q_i)
             + (1 − e_i) · (log(1 − p_i) − log(1 − q_i))

computed in log space as one matvec over the ``(shots, n_edges)`` error
matrix, so the weights stay finite at any ``p``/``q`` in ``(0, 1)``.  The
estimate ``p̂ = Σ w_i·fail_i / shots`` is unbiased; the effective sample
size ``(Σw)² / Σw²`` diagnoses tilt quality, and the interval is an
**effective-n Wilson interval** (the Wilson score formula evaluated at the
direct-sample count that would match the estimator's variance).  With
``q == p`` every weight is *identically* ``1.0`` — the log-ratio is an
exact zero — and the path consumes the very same ``rng.random((S, N))``
stream as :func:`~repro.qec.sampling.run_memory_sampling`, so it reproduces
the direct sampler **bitwise**.  That is the determinism anchor the tests
hold the implementation to.

**Weight-stratified subset sampling** (``method="stratified"``) — shots are
conditioned on the total error weight ``w`` (number of flipped edges).
Each stratum's probability ``P(W = w)`` is *exact*: a binomial when every
edge shares one rate, a Poisson-binomial dynamic program otherwise.  Strata
below the code's minimum fault weight — a minimum-weight decoder cannot
fail on fewer than ``⌈d/2⌉`` errors — are skipped as exact zeros, and the
decode budget is spent adaptively where the variance is: a pilot round
measures each stratum's conditional failure rate, the remainder allocates
by Neyman weights ``P_w · √(f_w(1 − f_w))``.  Conditional fixed-weight
samples are drawn exactly (no rejection) with the suffix-probability table
of the same dynamic program, so heterogeneous edge rates are handled
without approximation.

Both estimators ride the direct sampler's engine end to end: the per-graph
:class:`~repro.qec.sampling.SamplingArrays`, the bit-packed syndrome
kernel, per-block ``SeedSequence.spawn`` seeding (blocks — never workers —
are the determinism unit), and the seeded-block run
(:class:`~repro.qec.sampling._SeededRun`) that owns shard dispatch,
worker-counter fold-back and expectation-cache checkpointing (full-run
keys, plus per-chunk keys in :func:`stream_rare_event_sampling`).  This
module supplies only the spec, the per-block sampling body and the folds.
Floating-point aggregates are folded with :func:`math.fsum` over
*per-block* partial sums — ``fsum`` is correctly rounded regardless of
summand order, so how blocks are grouped onto workers can never move a
bit of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bitops import popcount
from .decoders.base import batch_decode_packed
from .decoders.graph import DecodingGraph
from .sampling import (SHOT_BLOCK, SamplingArrays, SeedLike, _SeededRun,
                       _shot_blocks, packed_syndromes_and_flips,
                       sampling_arrays, wilson_interval)

__all__ = [
    "RareEventResult", "StratumResult", "effective_wilson_interval",
    "minimum_fault_weight", "run_rare_event_sampling",
    "stream_rare_event_sampling", "stratum_probabilities",
    "tilt_for_mean_weight", "tilted_probabilities",
]

#: Tilt spec accepted by ``run_rare_event_sampling``: ``None`` (auto —
#: tilt the mean error weight onto the minimum fault weight), a scalar
#: exponential-tilt parameter θ, or an explicit per-edge ``q`` array.
TiltLike = Union[None, float, Sequence[float], np.ndarray]


# ---------------------------------------------------------------------------
# Tilting and stratum probabilities (pure math, no sampling)
# ---------------------------------------------------------------------------


def tilted_probabilities(probabilities: np.ndarray,
                         theta: float) -> np.ndarray:
    """Exponentially tilted Bernoulli rates ``q_i = p_i e^θ / (1 − p_i + p_i e^θ)``.

    ``θ > 0`` pushes mass toward more errors per shot, ``θ < 0`` toward
    fewer; ``θ = 0`` returns ``probabilities`` itself (bit-for-bit — the
    identity tilt must preserve the ``q == p`` determinism anchor, and a
    float round-trip through odds space would not).
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if theta == 0.0:
        return probabilities.copy()
    # Work in log-odds so extreme θ cannot overflow: the tilted odds are
    # exp(logit(p) + θ) and the sigmoid maps them back into (0, 1).
    logits = np.log(probabilities) - np.log1p(-probabilities)
    tilted = logits + float(theta)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-tilted))


def tilt_for_mean_weight(probabilities: np.ndarray,
                         target_weight: float) -> float:
    """The tilt θ making the *expected* error weight ``Σ q_i(θ)`` hit
    ``target_weight``.

    ``Σ q_i(θ)`` is strictly increasing in θ, so a fixed-iteration
    bisection (deterministic — the value participates in cache keys via
    the tilted ``q``) converges to machine precision.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    target = float(target_weight)
    if not 0.0 < target < probabilities.size:
        raise ValueError(
            f"target mean weight must lie in (0, {probabilities.size}), "
            f"got {target}")
    low, high = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if float(tilted_probabilities(probabilities, mid).sum()) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


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


def minimum_fault_weight(graph: DecodingGraph) -> int:
    """The smallest error weight that can defeat a minimum-weight decoder.

    Any failing shot satisfies ``|error| + |correction| ≥ d`` (the error
    plus the correction close a logical-class cycle, whose weight is at
    least the code distance) and a minimum-weight correction never weighs
    more than the error that produced its syndrome, so ``|error| ≥ ⌈d/2⌉``.
    The bound assumes uniform edge weights and a minimum-weight (or better)
    decoder — pass ``min_fault_weight=1`` to ``run_rare_event_sampling``
    to disable the skip for decoders outside that contract.
    """
    return (int(graph.distance) + 1) // 2


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
    by); ``estimate`` is the unbiased logical-error-rate estimate with
    estimator ``variance`` and effective sample size ``ess``;
    ``raw_failures`` counts the unweighted decoder disagreements actually
    observed (diagnostics — under a tilt they are *not* an error-rate
    numerator).  ``strata`` carries the per-stratum breakdown
    (stratified method only) and ``tail_probability`` bounds the bias of
    skipping strata above the truncation weight.
    """

    method: str
    shots: int
    estimate: float
    variance: float
    ess: float
    raw_failures: int
    total_defects: int
    from_cache: bool
    strata: Tuple[StratumResult, ...] = ()
    tail_probability: float = 0.0
    fault_report: Optional[object] = None

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

    The spec is a pure function of (graph, method, knobs) — building it
    twice yields identical values, which is what lets the cache keys and
    the resumed streaming path agree with the original run.
    """

    method: str
    q: Optional[np.ndarray]              # importance only
    strata: Tuple[int, ...]              # stratified only
    stratum_probability: Dict[int, float]
    tail: float
    pilot_shots: int
    method_token: tuple


def _digest_array(values: np.ndarray) -> str:
    import hashlib
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return hasher.hexdigest()


def _resolve_spec(graph: DecodingGraph, arrays: SamplingArrays, method: str,
                  shots: int, tilt: TiltLike, min_fault_weight_arg,
                  max_weight_arg, pilot_shots: int,
                  tail_rtol: float) -> _RareEventSpec:
    if method == "importance":
        probabilities = arrays.probabilities
        if tilt is None:
            target = float(minimum_fault_weight(graph))
            theta = tilt_for_mean_weight(probabilities, target)
            q = tilted_probabilities(probabilities, theta)
        elif np.isscalar(tilt):
            q = tilted_probabilities(probabilities, float(tilt))
        else:
            q = np.asarray(tilt, dtype=np.float64)
            if q.shape != probabilities.shape:
                raise ValueError(
                    f"tilt array must have one rate per edge "
                    f"({probabilities.size}), got shape {q.shape}")
        if q.size and (float(q.min()) <= 0.0 or float(q.max()) >= 1.0):
            raise ValueError("tilted probabilities must lie strictly in "
                             "(0, 1) — the likelihood ratio is undefined "
                             "at 0 and 1")
        return _RareEventSpec(method="importance", q=q, strata=(),
                              stratum_probability={}, tail=0.0,
                              pilot_shots=0,
                              method_token=("importance", _digest_array(q)))

    if method != "stratified":
        raise ValueError(f"unknown rare-event method {method!r} "
                         f"(expected 'importance' or 'stratified')")
    n_edges = arrays.num_edges
    min_fault = (minimum_fault_weight(graph) if min_fault_weight_arg is None
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
        method="stratified", q=None, strata=strata,
        stratum_probability={w: float(dist[w]) for w in strata}, tail=tail,
        pilot_shots=pilot,
        method_token=("stratified", min_fault, max_weight, pilot))


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
    subsets when the rates are homogeneous, the tilted conditional
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


def _log_weight_terms(p: np.ndarray, q: np.ndarray
                      ) -> Tuple[float, np.ndarray]:
    """``(base_log, log_ratio)`` such that a shot with error vector ``e``
    carries likelihood-ratio log-weight ``base_log + e @ log_ratio``.

    ``base_log`` is the all-zeros weight (every edge kept clean under both
    measures) and ``log_ratio`` the per-edge swing of flipping one edge.
    Both terms are exact zeros when ``q == p`` (identical arrays subtract
    to 0.0), which is what makes the identity-tilt anchor bitwise; and
    both stay finite for any rates strictly inside (0, 1) because each
    factor goes through ``log``/``log1p`` before any ratio is formed.
    """
    keep = np.log1p(-p) - np.log1p(-q)
    log_ratio = (np.log(p) - np.log(q)) - keep
    return float(keep.sum()), log_ratio


def _rare_event_blocks(graph: DecodingGraph, decoder,
                       q: Optional[np.ndarray],
                       units: Sequence[Tuple[Optional[int],
                                             np.random.SeedSequence, int]]
                       ) -> List[Dict]:
    """Sample + decode rare-event blocks; one partial-sum dict per block.

    Each unit is ``(stratum weight | None, block seed, block shots)``:
    ``None`` means an importance-sampling block drawn from the tilted
    rates ``q``; an integer means a stratified block conditioned on that
    exact error weight.  Blocks are never folded here, so the caller can
    reduce them with ``math.fsum`` in a grouping-independent way.
    """
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    if q is not None:
        base_log, log_ratio = _log_weight_terms(arrays.probabilities, q)
    include_tables: Dict[int, np.ndarray] = {}
    blocks: List[Dict] = []
    for weight, seed_child, block_shots in units:
        rng = np.random.default_rng(seed_child)
        if weight is None:
            draws = rng.random((int(block_shots), arrays.num_edges))
            errors = (draws < q).view(np.uint8)
        else:
            include = include_tables.get(int(weight))
            if include is None:
                include = _conditional_include_table(arrays.probabilities,
                                                     int(weight))
                include_tables[int(weight)] = include
            errors = _sample_fixed_weight(arrays, int(weight), block_shots,
                                          rng, include)
        words, flips = packed_syndromes_and_flips(arrays, errors)
        failures = (batch_decode_packed(decoder, words, detectors)
                    != flips.astype(bool))
        block = {"shots": int(block_shots), "defects": int(popcount(words))}
        if weight is None:
            weights = np.exp(base_log + errors @ log_ratio)
            weighted = weights * failures
            block.update(raw=int(failures.sum()),
                         wf=float(weighted.sum()),
                         wf2=float((weighted * weighted).sum()),
                         w=float(weights.sum()),
                         w2=float((weights * weights).sum()))
        else:
            block.update(weight=int(weight), failures=int(failures.sum()))
        blocks.append(block)
    return blocks


#: Per-block (and per streamed chunk) sums of each method — the checkpoint
#: components of a streamed chunk.
_IMPORTANCE_SUMS = ("wf", "wf2", "w", "w2", "raw", "defects", "shots")
_STRATUM_SUMS = ("failures", "defects", "shots")


# ---------------------------------------------------------------------------
# Folding block sums (fsum: grouping-independent to the last bit)
# ---------------------------------------------------------------------------


def _count(blocks: Sequence[Dict], name: str) -> int:
    """Exact total of an integer field (replayed checkpoints hold floats)."""
    return int(round(math.fsum(block[name] for block in blocks)))


def _fold_importance(blocks: Sequence[Dict]) -> RareEventResult:
    """The importance estimate from per-block (or per-chunk) sums."""
    wf = math.fsum(block["wf"] for block in blocks)
    wf2 = math.fsum(block["wf2"] for block in blocks)
    w = math.fsum(block["w"] for block in blocks)
    w2 = math.fsum(block["w2"] for block in blocks)
    shots = _count(blocks, "shots")
    estimate = wf / shots
    if shots > 1:
        # Sample variance of x_i = w_i·fail_i over the S draws, then /S
        # for the variance of the mean.
        sample_var = max(wf2 - shots * estimate * estimate, 0.0) / (shots - 1)
        variance = sample_var / shots
    else:
        variance = 0.0
    ess = (w * w / w2) if w2 > 0.0 else 0.0
    return RareEventResult(
        method="importance", shots=shots, estimate=estimate,
        variance=variance, ess=ess, raw_failures=_count(blocks, "raw"),
        total_defects=_count(blocks, "defects"), from_cache=False)


def _fold_strata(blocks: Sequence[Dict],
                 spec: _RareEventSpec) -> RareEventResult:
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
        method="stratified", shots=sum(s.shots for s in strata),
        estimate=estimate, variance=variance, ess=ess,
        raw_failures=sum(s.failures for s in strata),
        total_defects=_count(blocks, "defects"), from_cache=False,
        strata=strata, tail_probability=spec.tail)


def _fold(blocks: Sequence[Dict], spec: _RareEventSpec) -> RareEventResult:
    if spec.method == "importance":
        return _fold_importance(blocks)
    return _fold_strata(blocks, spec)


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
             for s in _fold_strata(pilot_blocks, spec).strata}
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
        method=spec.method, shots=int(shots),
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


def _rare_run(graph: DecodingGraph, decoder, shots: int, method: str,
              seed: SeedLike, executor, use_cache: Optional[bool],
              knobs: tuple) -> Tuple[_SeededRun, _RareEventSpec]:
    spec = _resolve_spec(graph, sampling_arrays(graph), method, shots,
                         *knobs)
    run = _SeededRun("qec-rare", graph, decoder, shots, seed, executor,
                     use_cache, extra=(spec.method_token,))
    return run, spec


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_rare_event_sampling(graph: DecodingGraph, decoder, shots: int, *,
                            method: str = "stratified",
                            seed: SeedLike = None,
                            executor=None,
                            use_cache: Optional[bool] = None,
                            policy=None,
                            tilt: TiltLike = None,
                            min_fault_weight: Optional[int] = None,
                            max_weight: Optional[int] = None,
                            pilot_shots: int = SHOT_BLOCK,
                            tail_rtol: float = 1e-3) -> RareEventResult:
    """Estimate the logical error rate with a rare-event estimator.

    ``shots`` is the **decode budget** — every method decodes exactly this
    many shots, which is the axis the benchmark gate compares against
    direct sampling.  ``method="importance"`` draws from exponentially
    tilted edge rates (``tilt``: ``None`` auto-solves the tilt that puts
    the mean error weight on the code's minimum fault weight, a float is
    the tilt parameter θ itself, an array is an explicit per-edge ``q``;
    ``tilt=0.0`` reproduces :func:`~repro.qec.sampling.run_memory_sampling`
    bitwise).  ``method="stratified"`` conditions on total error weight:
    strata below ``min_fault_weight`` (default ``⌈d/2⌉``) are exact zeros
    and never decoded, ``max_weight`` truncates the scored range (default:
    extend until the dropped tail is below ``tail_rtol`` of the covered
    mass), and the budget is spent pilot-then-Neyman across strata.

    Execution mirrors :func:`~repro.qec.sampling.run_memory_sampling`:
    blocks of :data:`~repro.qec.sampling.SHOT_BLOCK` shots seeded by
    ``SeedSequence.spawn`` children are the determinism unit, shards run
    through the executor's planner and fork pool, and seeded runs cache
    their aggregates in the executor's expectation cache under keys that
    encode none of the fan-out choices.  Results are **bitwise
    identical** for any worker count and any inline/thread/process
    path: integer counts fold
    exactly, and floating-point aggregates fold with ``math.fsum`` over
    per-block partial sums, whose correctly-rounded total is independent
    of how blocks were grouped.
    """
    run, spec = _rare_run(graph, decoder, shots, method, seed, executor,
                          use_cache, (tilt, min_fault_weight, max_weight,
                                      pilot_shots, tail_rtol))
    hit = run.cached(_result_names(spec))
    if hit is not None:
        return _cached_result(hit, spec, run.shots)
    def sample(units) -> List[Dict]:
        shards = run.dispatch(policy, _rare_event_blocks, units,
                              (spec.q,))
        return [block for blocks in shards for block in blocks]

    if spec.method == "importance":
        blocks = sample([(None, child, block_shots) for child, block_shots
                         in _shot_blocks(run.seed_sequence, shots)])
    else:
        children = _stratum_children(run.seed_sequence, spec)
        blocks = sample([(weight, child, block_shots)
                         for weight in spec.strata
                         for child, block_shots in _stratum_blocks(
                             children[weight][0], spec.pilot_shots)])
        allocation = _main_allocation(spec, blocks, shots)
        blocks += sample([(weight, child, block_shots)
                          for weight in spec.strata
                          for child, block_shots in _stratum_blocks(
                              children[weight][1], allocation[weight])])
    result = replace(_fold(blocks, spec), shots=run.shots,
                     fault_report=run.fault_report)
    run.finish(_result_values(result))
    return result


def stream_rare_event_sampling(graph: DecodingGraph, decoder, shots: int, *,
                               method: str = "stratified",
                               seed: SeedLike = None,
                               executor=None,
                               chunk_blocks: int = 4,
                               use_cache: Optional[bool] = None,
                               tilt: TiltLike = None,
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
    and produces snapshots bitwise identical to an uninterrupted run
    (chunk sums are folded the same way whether they come from the cache
    or from fresh decoding).

    The final snapshot writes the same full-run cache entries
    :func:`run_rare_event_sampling` uses, so batch and streaming runs warm
    each other.  Integer aggregates (the whole stratified method) match
    the batch path bitwise; importance-sampling float aggregates fold
    per-chunk here versus per-block there, so they agree to ``fsum``
    rounding of the partial sums (exactly equal whenever the weights are
    exact — e.g. the ``q == p`` anchor).
    """
    run, spec = _rare_run(graph, decoder, shots, method, seed, executor,
                          use_cache, (tilt, min_fault_weight, max_weight,
                                      pilot_shots, tail_rtol))
    if chunk_blocks < 1:
        raise ValueError("chunk_blocks must be a positive integer")
    hit = run.cached(_result_names(spec))
    if hit is not None:
        yield _cached_result(hit, spec, run.shots)
        return

    chunks: List[Dict] = []

    def phase(name: str, weight: Optional[int], block_seeds):
        """Stream one phase's chunks, yielding the running snapshot."""
        sums = _IMPORTANCE_SUMS if weight is None else _STRATUM_SUMS

        def compute(chunk) -> Dict[str, float]:
            blocks = _rare_event_blocks(graph, decoder, spec.q,
                                        [(weight, child, block_shots)
                                         for child, block_shots in chunk])
            return {component: math.fsum(block[component]
                                         for block in blocks)
                    for component in sums}

        position = (name, -1 if weight is None else int(weight))
        for _, values in run.checkpointed(block_seeds, chunk_blocks, sums,
                                          compute, position):
            chunks.append(dict(values, weight=weight))
            yield _fold(chunks, spec)

    if spec.method == "importance":
        yield from phase("is", None, _shot_blocks(run.seed_sequence, shots))
    else:
        children = _stratum_children(run.seed_sequence, spec)
        for weight in spec.strata:
            yield from phase("pilot", weight, _stratum_blocks(
                children[weight][0], spec.pilot_shots))
        allocation = _main_allocation(spec, chunks, shots)
        for weight in spec.strata:
            yield from phase("main", weight, _stratum_blocks(
                children[weight][1], allocation[weight]))
    run.finish(_result_values(_fold(chunks, spec)))
