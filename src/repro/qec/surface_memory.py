"""Phenomenological surface-code memory experiments.

This is the Monte-Carlo counterpart of the analytic logical-error-rate model
in :mod:`repro.qec.surface_code` (which supplies the per-operation error rates
the paper's pQEC regime assumes).  A memory experiment repeatedly

1. samples independent data-qubit errors per round and measurement errors per
   stabilizer readout on the space-time decoding graph,
2. extracts the detector syndrome (XOR of consecutive rounds),
3. runs a decoder (:mod:`repro.qec.decoders`), and
4. checks whether the residual error commutes with the logical operator.

Since PR 5 step 1–2 are the vectorized kernel of :mod:`repro.qec.sampling`
(one Bernoulli matrix, one mod-2 incidence matmul) and step 3 is the
decoder's batched ``decode_batch`` over *unique* syndromes, with the whole
experiment routed through the execution layer's shard planner and
expectation cache.  Because errors, syndromes and corrections are all
expressed on the same :class:`~repro.qec.decoders.graph.DecodingGraph`, any
decoder implementing the batch protocol can be plugged in and compared —
which is what the decoder-ablation benchmark does.  The repetition code is
one more graph: ``SurfaceCodeMemory(repetition_code_graph(d, rounds, p, q),
RepetitionMatchingDecoder, seed)`` is the phenomenological repetition-code
memory experiment with the coordinate matching decoder.  The per-shot
decode loop over the same samples — bitwise-identical failure counts — is
the test suite's reference (``tests/reference/qec.py``), used by the
equivalence tests and the throughput gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .decoders.graph import (DecodingGraph, repetition_code_graph,
                             rotated_surface_code_graph)
from .decoders.mwpm import MWPMDecoder
from .rare_event import RareEventResult, run_rare_event_sampling
from .sampling import (SeedLike, binomial_standard_error,
                       run_memory_sampling, wilson_interval)


@dataclass
class MemoryExperimentOutcome:
    """Aggregate statistics of a memory experiment."""

    code: str
    distance: int
    rounds: int
    physical_error_rate: float
    shots: int
    failures: int
    decoder_name: str
    average_defects: float

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def logical_error_per_round(self) -> float:
        """Per-round failure rate, assuming independent rounds."""
        if self.shots == 0:
            return 0.0
        survival = 1.0 - self.logical_error_rate
        survival = min(max(survival, 1e-12), 1.0)
        return 1.0 - survival ** (1.0 / max(self.rounds, 1))

    @property
    def standard_error(self) -> float:
        """Binomial standard error of :attr:`logical_error_rate`."""
        return binomial_standard_error(self.failures, self.shots)

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score confidence interval for the logical error rate."""
        return wilson_interval(self.failures, self.shots, z=z)


@dataclass
class RareEventMemoryOutcome(MemoryExperimentOutcome):
    """A memory-experiment outcome backed by a rare-event estimator.

    Drop-in for :class:`MemoryExperimentOutcome` — figure code reading
    ``logical_error_rate`` / ``standard_error`` / ``wilson_interval`` gets
    the variance-reduced estimate transparently.  ``failures`` counts the
    *raw* decoder disagreements observed under the biased sampling
    distribution (diagnostics only: under the stratum conditioning
    ``failures / shots`` is not the logical error rate — that is exactly
    the point), and :attr:`rare` carries the full estimator output,
    including the per-stratum breakdown.
    """

    rare: RareEventResult = None  # set by SurfaceCodeMemory.run

    @property
    def logical_error_rate(self) -> float:
        return self.rare.estimate

    @property
    def standard_error(self) -> float:
        return self.rare.standard_error

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        return self.rare.wilson_interval(z=z)


class SurfaceCodeMemory:
    """Monte-Carlo memory experiment driver over a decoding graph.

    :meth:`run` executes the batched, executor-routed pipeline and is
    deterministic per construction ``seed`` — identical failure counts for
    any worker count, with seeded runs cached in the execution layer.
    """

    def __init__(self, graph: DecodingGraph,
                 decoder_factory: Optional[Callable[[DecodingGraph], object]] = None,
                 seed: SeedLike = None):
        self._graph = graph
        factory = decoder_factory if decoder_factory is not None else MWPMDecoder
        self._decoder = factory(graph)
        self._seed = seed
        # Outcomes report the largest elementary-mechanism probability.
        self._physical_error_rate = max(
            (1.0 / (1.0 + math.exp(edge.weight)) for edge in graph.edges),
            default=0.0)

    @property
    def decoder(self):
        return self._decoder

    @property
    def decoding_graph(self) -> DecodingGraph:
        return self._graph

    def _outcome(self, shots: int, failures: int,
                 total_defects: int) -> MemoryExperimentOutcome:
        return MemoryExperimentOutcome(
            code=self._graph.name, distance=self._graph.distance,
            rounds=self._graph.rounds,
            physical_error_rate=self._physical_error_rate,
            shots=shots, failures=failures,
            decoder_name=getattr(self._decoder, "name",
                                 type(self._decoder).__name__),
            average_defects=total_defects / shots if shots else 0.0)

    def run(self, shots: int = 200, *, executor=None,
            policy=None,
            use_cache: Optional[bool] = None,
            method: str = "direct",
            **rare_event_options) -> MemoryExperimentOutcome:
        """Run ``shots`` through the batched, executor-routed pipeline.

        ``method="direct"`` (default) is plain Monte-Carlo over the
        physical error rates.  ``method="rare-event"`` routes the same
        decode budget through
        :func:`~repro.qec.rare_event.run_rare_event_sampling` and returns
        a :class:`RareEventMemoryOutcome` whose
        ``logical_error_rate`` is the variance-reduced estimate — the way
        low-``p`` figure points are produced.  Extra keyword arguments
        (``min_fault_weight``, ``max_weight``, ``pilot_shots``,
        ``tail_rtol``) pass through to the estimator.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        if method == "direct":
            if rare_event_options:
                raise TypeError(
                    f"method='direct' takes no estimator options, got "
                    f"{sorted(rare_event_options)}")
            sampled = run_memory_sampling(self._graph, self._decoder, shots,
                                          seed=self._seed, executor=executor,
                                          policy=policy,
                                          use_cache=use_cache)
            return self._outcome(shots, sampled.failures,
                                 sampled.total_defects)
        if method != "rare-event":
            raise ValueError(
                f"unknown method {method!r} (expected 'direct' or "
                f"'rare-event')")
        rare = run_rare_event_sampling(
            self._graph, self._decoder, shots, seed=self._seed,
            executor=executor, policy=policy,
            use_cache=use_cache, **rare_event_options)
        plain = self._outcome(rare.shots, rare.raw_failures,
                              rare.total_defects)
        return RareEventMemoryOutcome(
            code=plain.code, distance=plain.distance, rounds=plain.rounds,
            physical_error_rate=plain.physical_error_rate,
            shots=plain.shots, failures=plain.failures,
            decoder_name=plain.decoder_name,
            average_defects=plain.average_defects, rare=rare)


# ---------------------------------------------------------------------------
# Convenience drivers
# ---------------------------------------------------------------------------

def surface_code_memory_experiment(distance: int, physical_error_rate: float,
                                   rounds: Optional[int] = None,
                                   shots: int = 200,
                                   decoder_factory: Optional[Callable] = None,
                                   seed: SeedLike = 7,
                                   executor=None,
                                   policy=None,
                                   use_cache: Optional[bool] = None,
                                   method: str = "direct",
                                   **rare_event_options
                                   ) -> MemoryExperimentOutcome:
    """Rotated-surface-code memory experiment with ``rounds`` defaulting to d.

    ``method="rare-event"`` swaps in the variance-reduced estimator for
    low-``p`` points (see :meth:`SurfaceCodeMemory.run`).
    """
    rounds = rounds if rounds is not None else distance
    graph = rotated_surface_code_graph(distance, rounds, physical_error_rate)
    memory = SurfaceCodeMemory(graph, decoder_factory, seed=seed)
    return memory.run(shots, executor=executor, policy=policy,
                      use_cache=use_cache, method=method, **rare_event_options)


def repetition_code_memory_experiment(distance: int, physical_error_rate: float,
                                      rounds: Optional[int] = None,
                                      shots: int = 400,
                                      decoder_factory: Optional[Callable] = None,
                                      seed: SeedLike = 7,
                                      executor=None,
                                      policy=None,
                                      use_cache: Optional[bool] = None,
                                      method: str = "direct",
                                      **rare_event_options
                                      ) -> MemoryExperimentOutcome:
    """Repetition-code memory experiment with ``rounds`` defaulting to d."""
    rounds = rounds if rounds is not None else distance
    graph = repetition_code_graph(distance, rounds, physical_error_rate)
    memory = SurfaceCodeMemory(graph, decoder_factory, seed=seed)
    return memory.run(shots, executor=executor, policy=policy,
                      use_cache=use_cache, method=method, **rare_event_options)


def decoder_comparison(distance: int, physical_error_rate: float,
                       decoder_factories: Dict[str, Callable],
                       shots: int = 200, rounds: Optional[int] = None,
                       code: str = "rotated_surface",
                       seed: int = 11,
                       executor=None,
                       policy=None,
                       use_cache: Optional[bool] = None
                       ) -> Dict[str, MemoryExperimentOutcome]:
    """Run the same error realizations through several decoders.

    All decoders share the code, error rate, shot budget *and* — because
    batched sampling depends only on the graph and the seed — the literal
    error samples, so the comparison is paired shot-for-shot; the returned
    mapping feeds the decoder-ablation bench.
    """
    rounds = rounds if rounds is not None else distance
    builder = (rotated_surface_code_graph if code == "rotated_surface"
               else repetition_code_graph)
    results: Dict[str, MemoryExperimentOutcome] = {}
    for name, factory in decoder_factories.items():
        graph = builder(distance, rounds, physical_error_rate)
        memory = SurfaceCodeMemory(graph, factory, seed=seed)
        results[name] = memory.run(shots, executor=executor, policy=policy,
                                   use_cache=use_cache)
    return results


def logical_error_rate_curve(distances: Sequence[int],
                             physical_error_rates: Sequence[float],
                             shots: int = 200,
                             code: str = "rotated_surface",
                             decoder_factory: Optional[Callable] = None,
                             seed: int = 3,
                             executor=None,
                             policy=None,
                             use_cache: Optional[bool] = None,
                             method: str = "direct",
                             **rare_event_options
                             ) -> Dict[Tuple[int, float], float]:
    """Logical error rate over a (distance × physical error rate) sweep.

    Each grid cell is seeded by its own ``SeedSequence(seed)`` spawn child
    (collision-free by construction) and cached in the execution layer, so
    a warm re-run of the same curve decodes nothing.  ``method="rare-event"``
    estimates every cell with the stratified rare-event sampler — the same
    decode budget then resolves tail cells that direct Monte-Carlo would
    report as an uninformative zero.
    """
    distances = list(distances)
    physical_error_rates = list(physical_error_rates)
    builder = (rotated_surface_code_graph if code == "rotated_surface"
               else repetition_code_graph)
    children = np.random.SeedSequence(seed).spawn(
        len(distances) * len(physical_error_rates))
    curve: Dict[Tuple[int, float], float] = {}
    for row, distance in enumerate(distances):
        for column, error_rate in enumerate(physical_error_rates):
            child = children[row * len(physical_error_rates) + column]
            graph = builder(distance, distance, error_rate)
            memory = SurfaceCodeMemory(graph, decoder_factory, seed=child)
            outcome = memory.run(shots, executor=executor, policy=policy,
                                 use_cache=use_cache,
                                 method=method, **rare_event_options)
            curve[(distance, float(error_rate))] = outcome.logical_error_rate
    return curve
