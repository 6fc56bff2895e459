"""Batched, executor-routed Monte-Carlo sampling for QEC memory experiments.

The paper's QEC headline numbers (logical error rates behind Figs. 4–6 and
the decoder ablations) come from Monte-Carlo memory experiments.  Before this
module they were sampled one shot at a time in pure Python; now a whole
experiment is three NumPy operations plus one batched decode:

1. **Bernoulli matrix** — every elementary error mechanism is one column, so
   all shots draw as a single ``(shots, n_edges)`` comparison against the
   per-edge probabilities (recovered from the decoding-graph weights).
2. **Syndrome matmul** — a precomputed edge→detector incidence matrix turns
   the error matrix into all detector syndromes with one mod-2 matmul; the
   logical-mask vector yields every shot's true logical flip the same way.
   :func:`packed_syndromes_and_flips` does this in bit-packed uint64 words
   via a precompiled gather-table plan (:mod:`repro.qec.bitops`) — exact
   integer mod-2 math at any size.  The dense float32-GEMM kernel it
   replaced, and a per-shot decode loop over the same samples, are the test
   suite's references (``tests/reference/qec.py``).
3. **Batched decode** — the decoder's ``decode_batch``
   (:mod:`repro.qec.decoders.base`) deduplicates shots to unique syndromes
   and decodes each once.  A shard decodes its blocks in groups whose
   packed syndrome rows stay under :data:`_DECODE_GROUP_BYTES`, so memory
   stays flat in the shot count.

Execution-layer contract (mirrors :mod:`repro.execution.sharding`), owned
by :class:`_SeededRun` for every entry point here and in
:mod:`repro.qec.rare_event`:

* Shots are partitioned into fixed-size **blocks** of :data:`SHOT_BLOCK`;
  each block is seeded by its own ``SeedSequence.spawn`` child.  Blocks — not
  workers — are the determinism unit, so failure counts are **bitwise
  identical** for any worker count and for the inline and process paths
  (workers only change how blocks are *grouped*).
* Blocks run inline unless the per-call policy (resolved over the
  executor's) says ``parallel="process"``; process shards are planned by
  the executor (a :class:`~repro.execution.sharding.ShardPlanner`) and run
  through :func:`~repro.execution.sharding.fan_out` on the fork pool; decode
  and decoder diagnostic counters a shard moved in another process are
  folded into the caller's counters exactly once.
* Seeded experiments cache their results in the executor's expectation
  cache, keyed on the graph's content
  :meth:`~repro.qec.decoders.graph.DecodingGraph.fingerprint`, the
  decoder's cache token, shots, block size and seed — so a warm figure-suite
  re-run decodes nothing (provable via :func:`sampling_stats`).  Streamed
  runs also checkpoint every chunk of blocks under chunk-position keys.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .. import obs
from ..execution.sharding import ShardGroup, fan_out
from .bitops import (Mod2GatherPlan, mod2_matvec_packed, pack_rows,
                     packed_words, popcount)
from .decoders.base import (batch_decode_packed, batch_decode_stats,
                            decoder_cache_token, reset_batch_decode_stats)
from .decoders.graph import BOUNDARY, DecodingGraph

#: Shots per deterministic sampling block.  Each block draws from its own
#: ``SeedSequence.spawn`` child, so results never depend on how blocks are
#: distributed over workers.  Changing this constant changes which child
#: seeds a given shot — it is folded into the cache key for that reason.
SHOT_BLOCK = 256

#: Upper bound on the packed syndrome rows one memory-sampling decode call
#: holds.  A shard decodes its blocks in groups of
#: ``_DECODE_GROUP_BYTES // (SHOT_BLOCK × packed row bytes)`` blocks (at
#: least one), so peak memory stays flat in the shot count.  Decoding is
#: deterministic, so grouping never changes a count — only how many
#: syndromes dedup can share.
_DECODE_GROUP_BYTES = 4 * 2**20

SeedLike = Union[None, int, np.random.SeedSequence]


# ---------------------------------------------------------------------------
# Sampling kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingArrays:
    """Precomputed per-graph arrays driving the vectorized sampler.

    ``incidence`` is the ``(n_edges, n_detectors)`` edge→detector matrix
    (columns follow :meth:`DecodingGraph.detector_order`), ``probabilities``
    the per-edge Bernoulli rates recovered from the edge weights, and
    ``logical_mask`` the 0/1 vector marking edges that cross the logical
    operator representative.
    """

    probabilities: np.ndarray
    incidence: np.ndarray
    logical_mask: np.ndarray
    # Bit-packed kernel state (repro.qec.bitops): the gather-table matmul
    # plan for the fixed incidence matrix and the packed logical mask.
    incidence_plan: Mod2GatherPlan
    logical_mask_words: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[0]

    @property
    def num_detectors(self) -> int:
        return self.incidence.shape[1]


#: Per-graph memo for the precomputed arrays; weak keys so a dropped graph
#: frees its arrays, and the memo never mutates the graph object itself.
_arrays_cache: "weakref.WeakKeyDictionary[DecodingGraph, Tuple[tuple, SamplingArrays]]" = \
    weakref.WeakKeyDictionary()


def sampling_arrays(graph: DecodingGraph) -> SamplingArrays:
    """The (memoized) :class:`SamplingArrays` for ``graph``."""
    token = graph._shape_token()
    cached = _arrays_cache.get(graph)
    if cached is not None and cached[0] == token:
        return cached[1]
    detectors = graph.detector_order()
    index = {detector: i for i, detector in enumerate(detectors)}
    edges = graph.edges
    incidence = np.zeros((len(edges), len(detectors)), dtype=np.uint8)
    logical_mask = np.zeros(len(edges), dtype=np.uint8)
    probabilities = np.empty(len(edges), dtype=np.float64)
    for position, edge in enumerate(edges):
        probabilities[position] = 1.0 / (1.0 + math.exp(edge.weight))
        logical_mask[position] = 1 if edge.flips_logical else 0
        for node in (edge.node_a, edge.node_b):
            if node != BOUNDARY:
                incidence[position, index[node]] ^= 1
    arrays = SamplingArrays(probabilities=probabilities, incidence=incidence,
                            logical_mask=logical_mask,
                            incidence_plan=Mod2GatherPlan(incidence),
                            logical_mask_words=pack_rows(logical_mask))
    _arrays_cache[graph] = (token, arrays)
    return arrays


def sample_errors(arrays: SamplingArrays, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """All shots' elementary-error indicators as one Bernoulli matrix.

    Row ``i`` of the returned ``(shots, n_edges)`` uint8 matrix is bitwise
    identical to what ``i`` sequential ``rng.random(n_edges)`` draws against
    the same probabilities would produce — a per-shot sampler and this
    kernel consume the generator identically.
    """
    draws = rng.random((int(shots), arrays.num_edges))
    return (draws < arrays.probabilities).view(np.uint8)


def packed_syndromes_and_flips(arrays: SamplingArrays, errors: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """``(packed syndrome words, logical flips)`` via the bit-packed kernel.

    The error matrix is packed once
    (:func:`repro.qec.bitops.pack_rows`); syndromes come from the
    precompiled incidence :class:`~repro.qec.bitops.Mod2GatherPlan` as
    ``(shots, packed_words(n_detectors))`` uint64 words, and the logical
    flips from one packed mod-2 matvec against the logical mask.  Exact
    mod-2 arithmetic at any size — no float32 ceiling — and bit-for-bit
    equal to the dense reference kernel after
    :func:`~repro.qec.bitops.unpack_rows`.
    """
    error_words = pack_rows(errors, arrays.num_edges)
    syndrome_words = arrays.incidence_plan.matmul_packed(error_words)
    flips = mod2_matvec_packed(error_words, arrays.logical_mask_words)
    return syndrome_words, flips


# ---------------------------------------------------------------------------
# Statistics (what "a warm cache decodes nothing" is proven with)
# ---------------------------------------------------------------------------


@dataclass
class QECSamplingStats:
    """Process-wide counters for the batched QEC sampling pipeline.

    ``experiments``/``cached_experiments`` count :func:`run_memory_sampling`
    calls (and how many were served entirely from the expectation cache
    without sampling or decoding); ``shots_sampled`` counts freshly sampled
    shots; ``process_shards`` counts shard payloads submitted to the worker
    pool.  ``syndromes_decoded``/``shots_decoded``/``batch_calls`` mirror
    :func:`repro.qec.decoders.batch_decode_stats` — unique syndromes that
    actually reached a decoder versus shots served by dedup.
    """

    experiments: int = 0
    cached_experiments: int = 0
    shots_sampled: int = 0
    process_shards: int = 0
    batch_calls: int = 0
    shots_decoded: int = 0
    syndromes_decoded: int = 0


#: :mod:`repro.obs` name prefix of the experiment counters (named after
#: the :class:`QECSamplingStats` fields).
_COUNTERS = "qec.sampling."


def sampling_stats() -> QECSamplingStats:
    """A snapshot of the process-wide QEC sampling counters."""
    return QECSamplingStats(**obs.read(_COUNTERS),
                            **vars(batch_decode_stats()))


def reset_sampling_stats() -> None:
    """Zero the QEC sampling counters (tests and benchmarks)."""
    obs.reset(_COUNTERS)
    reset_batch_decode_stats()


# ---------------------------------------------------------------------------
# Binomial uncertainty helpers (shared by both result dataclasses)
# ---------------------------------------------------------------------------


def binomial_standard_error(failures: int, shots: int) -> float:
    """Plain binomial standard error of an empirical failure rate."""
    if shots <= 0:
        return 0.0
    rate = failures / shots
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / shots)


def wilson_interval(failures: int, shots: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Unlike the normal approximation it stays inside ``[0, 1]`` and remains
    honest at the extreme rates QEC sweeps produce (zero observed failures
    at low ``p``, near-certain failure above threshold).
    """
    if shots <= 0:
        return (0.0, 1.0)
    rate = failures / shots
    denominator = 1.0 + z * z / shots
    center = (rate + z * z / (2.0 * shots)) / denominator
    half = (z / denominator) * math.sqrt(
        rate * (1.0 - rate) / shots + z * z / (4.0 * shots * shots))
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# Seeds and blocks
# ---------------------------------------------------------------------------


def as_seed_sequence(seed: SeedLike
                     ) -> Tuple[np.random.SeedSequence, Optional[tuple]]:
    """``(SeedSequence, cache-key component)`` for a user-facing seed.

    ``None`` yields fresh OS entropy and no key (the run is not cacheable);
    an integer and a :class:`numpy.random.SeedSequence` (e.g. a sweep's
    spawned child) both yield stable, encodable key components.

    A provided ``SeedSequence`` is **rebuilt** from its ``(entropy,
    spawn_key)`` identity rather than used directly: ``spawn()`` advances a
    stateful child counter on the original object, so spawning from the
    caller's instance would make repeat runs draw different blocks (and
    diverge from the cache key, which only encodes the identity).
    """
    if seed is None:
        return np.random.SeedSequence(), None
    if isinstance(seed, np.random.SeedSequence):
        key = ("seedseq", str(seed.entropy),
               tuple(int(k) for k in seed.spawn_key))
        fresh = np.random.SeedSequence(entropy=seed.entropy,
                                       spawn_key=seed.spawn_key)
        return fresh, key
    return np.random.SeedSequence(int(seed)), ("seed", int(seed))


def _shot_blocks(seed_sequence: np.random.SeedSequence, shots: int
                 ) -> List[Tuple[np.random.SeedSequence, int]]:
    """Deterministic ``(child seed, block size)`` pairs covering ``shots``."""
    num_blocks = max(1, -(-int(shots) // SHOT_BLOCK))
    children = seed_sequence.spawn(num_blocks)
    sizes = [SHOT_BLOCK] * (num_blocks - 1)
    sizes.append(int(shots) - SHOT_BLOCK * (num_blocks - 1))
    return list(zip(children, sizes))


# ---------------------------------------------------------------------------
# The seeded-block run (shared with repro.qec.rare_event)
# ---------------------------------------------------------------------------


class _SeededRun:
    """The plumbing every QEC sampling entry point shares for one run.

    It owns the cacheability decision and the full-run cache probe/store,
    the chunk-checkpoint loop of the streaming generators, and the one
    planner → :func:`~repro.execution.sharding.fan_out` dispatch.  Memory
    and rare-event sampling supply only their spec, their per-block
    sampling body and their fold.

    Cache keys are ``(tag, graph fingerprint, decoder token, *extra,
    shots, SHOT_BLOCK, seed key, name)`` for the full run and ``(tag +
    "-chunk", …same identity…, *chunk position, name)`` for one streamed
    chunk; ``name`` is a component string or, for a tuple, spliced in.
    """

    def __init__(self, tag: str, graph: DecodingGraph, decoder, shots: int,
                 seed: SeedLike, executor, use_cache: Optional[bool],
                 extra: tuple = ()):
        if shots < 1:
            raise ValueError("need at least one shot")
        from ..execution.executor import default_executor
        self.executor = (executor if executor is not None
                         else default_executor())
        if use_cache is None:
            use_cache = self.executor.use_cache
        self.tag = tag
        self.graph = graph
        self.decoder = decoder
        self.shots = int(shots)
        self.seed_sequence, seed_key = as_seed_sequence(seed)
        decoder_token = decoder_cache_token(decoder)
        # Cacheable only when the run is seeded AND the decoder's behaviour
        # is fully pinned down by a content token (None = unknown
        # configuration).
        self.cacheable = bool(use_cache and seed_key is not None
                              and decoder_token is not None)
        self.identity = None
        if self.cacheable:
            self.identity = ((graph.fingerprint(), decoder_token)
                             + tuple(extra)
                             + (self.shots, SHOT_BLOCK, seed_key))
        self.fault_reports: list = []
        self.process_shards = 0

    @property
    def fault_report(self):
        """The first shard-supervisor report of this run, None if healthy."""
        return self.fault_reports[0] if self.fault_reports else None

    # -- cache -----------------------------------------------------------
    def _keys(self, names: Sequence, position: tuple = ()) -> Dict:
        head = ((self.tag + "-chunk",) if position else (self.tag,)) \
            + self.identity + position
        return {name: head + (name if isinstance(name, tuple) else (name,))
                for name in names}

    def _lookup(self, keys: Dict) -> Optional[Dict]:
        """The cached value per name, or None unless every key hits."""
        values = self.executor.cache.get_many(list(keys.values()))
        if any(value is None for value in values):
            return None
        return dict(zip(keys, values))

    def _store(self, keys: Dict, values: Dict) -> None:
        self.executor.cache.put_many((key, float(values[name]))
                                     for name, key in keys.items())

    def cached(self, names: Sequence) -> Optional[Dict]:
        """The full-run result's cached components (the experiment then
        counts as served from cache), or None when it must be computed."""
        if not self.cacheable:
            return None
        values = self._lookup(self._keys(names))
        if values is not None:
            obs.absorb({_COUNTERS + "experiments": 1,
                        _COUNTERS + "cached_experiments": 1})
        return values

    def finish(self, values: Dict) -> None:
        """Count the computed experiment and store its components."""
        obs.absorb({_COUNTERS + "experiments": 1,
                    _COUNTERS + "shots_sampled": self.shots,
                    _COUNTERS + "process_shards": self.process_shards})
        if self.cacheable:
            self._store(self._keys(list(values)), values)

    # -- streaming -------------------------------------------------------
    def checkpointed(self, blocks: Sequence, chunk_blocks: int,
                     names: Sequence, compute: Callable[[list], Dict],
                     position: tuple = ()
                     ) -> Iterator[Tuple[list, Dict]]:
        """Yield ``(chunk, components)`` per ``chunk_blocks`` blocks.

        A chunk a previous attempt already flushed is replayed from its
        checkpoint without sampling or decoding; any other is computed by
        ``compute(chunk)`` and, when the run is cacheable, its ``names``
        components are flushed under the chunk's position *and* width —
        so a resumed run with the same chunking re-decodes nothing, and a
        different chunking can never alias a partial count onto the wrong
        shots.  Replayed components are floats.
        """
        for start in range(0, len(blocks), int(chunk_blocks)):
            chunk = blocks[start:start + int(chunk_blocks)]
            keys = (self._keys(names, position + (start, len(chunk)))
                    if self.cacheable else None)
            values = self._lookup(keys) if keys is not None else None
            if values is None:
                values = compute(chunk)
                if keys is not None:
                    self._store(keys, values)
            yield chunk, values

    # -- dispatch --------------------------------------------------------
    def dispatch(self, policy, body: Callable, units: Sequence,
                 extra: tuple = ()) -> List:
        """Run ``body(graph, decoder, *extra, chunk)`` on each chunk of
        ``units`` in one :func:`~repro.execution.sharding.fan_out` under
        the per-call ``policy`` (resolved over the executor's); returns
        each shard's value in unit order and keeps fault reports for
        :attr:`fault_report`.
        """
        if not units:
            return []
        effective, plan = self.executor._plan(policy, len(units))
        run = fan_out(self.executor, effective, plan, [
            ShardGroup(body, (self.graph, self.decoder) + tuple(extra),
                       units)])
        self.fault_reports.extend(run.reports)
        self.process_shards += run.process_shards
        return run.values[0]


# ---------------------------------------------------------------------------
# Memory sampling
# ---------------------------------------------------------------------------


def _memory_blocks(graph: DecodingGraph, decoder,
                   blocks: Sequence[Tuple[np.random.SeedSequence, int]]
                   ) -> Dict[str, int]:
    """``{"failures", "defects"}`` of sampling and decoding ``blocks``.

    Only packed syndrome words are kept across blocks (the error matrix
    stays per block), and they are decoded in groups of whole blocks whose
    rows stay under :data:`_DECODE_GROUP_BYTES` — dedup spans a group.
    """
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    row_bytes = 8 * max(1, packed_words(arrays.num_detectors))
    group = max(1, _DECODE_GROUP_BYTES // (SHOT_BLOCK * row_bytes))
    failures = 0
    defects = 0
    for start in range(0, len(blocks), group):
        word_rows: List[np.ndarray] = []
        flip_rows: List[np.ndarray] = []
        for seed_sequence, block_shots in blocks[start:start + group]:
            rng = np.random.default_rng(seed_sequence)
            errors = sample_errors(arrays, block_shots, rng)
            words, flips = packed_syndromes_and_flips(arrays, errors)
            word_rows.append(words)
            flip_rows.append(flips)
        words = np.concatenate(word_rows, axis=0)
        decoder_flips = batch_decode_packed(decoder, words, detectors)
        error_flips = np.concatenate(flip_rows, axis=0).astype(bool)
        failures += int(np.sum(decoder_flips != error_flips))
        defects += int(popcount(words))
    return {"failures": failures, "defects": defects}


_MEMORY_COMPONENTS = ("failures", "defects")


@dataclass(frozen=True)
class SamplingRun:
    """Raw outcome of one batched memory-experiment sampling run.

    ``fault_report`` is the shard supervisor's
    :class:`~repro.execution.sharding.FaultReport` when process dispatch
    had to recover from a worker crash/timeout (None on a healthy run);
    recovery never changes the counts — retried shards are re-seeded
    identically.
    """

    shots: int
    failures: int
    total_defects: int
    from_cache: bool
    fault_report: Optional[object] = None

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def average_defects(self) -> float:
        return self.total_defects / self.shots if self.shots else 0.0


def _cached_sampling_run(shots: int, hit: Dict[str, float]) -> SamplingRun:
    return SamplingRun(shots=shots, failures=int(round(hit["failures"])),
                       total_defects=int(round(hit["defects"])),
                       from_cache=True)


def run_memory_sampling(graph: DecodingGraph, decoder, shots: int, *,
                        seed: SeedLike = None,
                        executor=None,
                        use_cache: Optional[bool] = None,
                        policy=None) -> SamplingRun:
    """Run a batched Monte-Carlo memory experiment over ``graph``.

    ``decoder`` needs only the graph-protocol ``decode(defects)``; in-repo
    decoders additionally implement ``decode_batch`` (via
    :class:`~repro.qec.decoders.base.SyndromeBatchDecoder`) and are decoded
    through it, while plain decoders get the generic dedup shell
    (:func:`repro.qec.decoders.base.batch_decode_packed`).
    ``executor`` supplies the shard planner, the expectation cache and the
    stats block (default: the process-wide
    :func:`repro.execution.executor.default_executor`); ``policy`` (an
    :class:`~repro.execution.policy.ExecutionPolicy`) overrides its
    fan-out policy for this call.

    Each shard decodes its blocks in groups bounded by
    :data:`_DECODE_GROUP_BYTES` of packed syndrome rows, so memory stays
    flat in the shot count (a d=15, 32768-shot run fits the 24 MiB budget
    of ``benchmarks/test_bitpacked_kernels.py``).

    Failure counts are bitwise identical for any worker count, inline or
    on the fork pool: all consume the identical per-block
    Bernoulli draw stream and decoding is deterministic.  Seeded runs
    therefore share one cache entry — the key encodes none of those
    execution choices — so repeating a seeded experiment decodes nothing.
    """
    run = _SeededRun("qec-memory", graph, decoder, shots, seed, executor,
                     use_cache)
    hit = run.cached(_MEMORY_COMPONENTS)
    if hit is not None:
        return _cached_sampling_run(run.shots, hit)
    counts = run.dispatch(policy, _memory_blocks,
                          _shot_blocks(run.seed_sequence, shots))
    totals = {name: sum(count[name] for count in counts)
              for name in _MEMORY_COMPONENTS}
    run.finish(totals)
    return SamplingRun(shots=run.shots, failures=totals["failures"],
                       total_defects=totals["defects"], from_cache=False,
                       fault_report=run.fault_report)


def stream_memory_sampling(graph: DecodingGraph, decoder, shots: int, *,
                           seed: SeedLike = None,
                           executor=None,
                           chunk_blocks: int = 4,
                           use_cache: Optional[bool] = None):
    """Generator variant of :func:`run_memory_sampling` with partial results.

    Yields **cumulative** :class:`SamplingRun` snapshots after every
    ``chunk_blocks`` sampling blocks (each :data:`SHOT_BLOCK` shots); the
    final yield covers all ``shots`` and its failure count is **bitwise
    identical** to ``run_memory_sampling(graph, decoder, shots, seed=seed)``
    — both iterate the same per-block ``SeedSequence.spawn`` children, a
    chunk boundary can never move a draw.  This is what the service layer
    streams running Wilson intervals from
    (:func:`wilson_interval` applied to each snapshot).

    Seeded runs share the executor expectation-cache entry with
    :func:`run_memory_sampling`: a warm cache yields the final snapshot
    immediately (one yield, ``from_cache=True``) and decodes nothing, and a
    cold streamed run writes the entry the batched entry point will hit.
    Sampling happens inline (no process shards) — streaming is about
    latency, not throughput.

    Seeded streamed runs additionally **checkpoint each chunk** through the
    same cache: after every ``chunk_blocks`` chunk, its failure/defect
    counts are flushed under a chunk-position key.  A resumed run on the
    same executor — a retried service job, a re-run after an interrupted
    stream — replays cached chunks without sampling or decoding them and
    only computes from where the previous attempt died.  Chunk checkpoints
    are exact partial sums of the same per-block stream, so a resumed run's
    snapshots and final counts stay bitwise identical to an uninterrupted
    one.
    """
    run = _SeededRun("qec-memory", graph, decoder, shots, seed, executor,
                     use_cache)
    if chunk_blocks < 1:
        raise ValueError("chunk_blocks must be a positive integer")
    hit = run.cached(_MEMORY_COMPONENTS)
    if hit is not None:
        yield _cached_sampling_run(run.shots, hit)
        return
    done_shots = 0
    totals = dict.fromkeys(_MEMORY_COMPONENTS, 0)
    for chunk, counts in run.checkpointed(
            _shot_blocks(run.seed_sequence, shots), chunk_blocks,
            _MEMORY_COMPONENTS,
            lambda chunk: _memory_blocks(graph, decoder, chunk)):
        done_shots += sum(block_shots for _, block_shots in chunk)
        for name in _MEMORY_COMPONENTS:
            totals[name] += int(round(counts[name]))
        yield SamplingRun(shots=done_shots, failures=totals["failures"],
                          total_defects=totals["defects"], from_cache=False)
    run.finish(totals)
