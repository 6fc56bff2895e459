"""Monte-Carlo quantum-memory experiments with matching decoding.

The paper derives error-corrected operation error rates by simulating
surface-code operations in Stim (Sec. 5.2.1).  As the offline substitute,
this module runs phenomenological-noise memory experiments on the repetition
code — the X (or Z) sector of the surface code decodes in exactly this way —
with a real space–time matching decoder, and exposes the empirical logical
error rate per round.

Since PR 5 the experiment rides the batched sampling pipeline
(:mod:`repro.qec.sampling`): all shots draw as one Bernoulli matrix over the
repetition code's decoding graph, syndromes fall out of one mod-2 matmul,
and the matching decoder decodes only the *unique* syndromes.  Seeded runs
are deterministic for any worker count and cache their aggregate in the
execution layer's expectation cache.  The historical one-shot-at-a-time
machinery (:meth:`RepetitionCodeMemory._run_shot` /
:meth:`RepetitionCodeMemory.run_reference`) is retained as the reference
implementation the equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .decoder import MatchingDecoder, repetition_code_decoder
from .decoders.base import SyndromeBatchDecoder
from .decoders.graph import DecodingGraph, repetition_code_graph
from .sampling import (SeedLike, binomial_standard_error, run_memory_sampling,
                       wilson_interval)


@dataclass(frozen=True)
class MemoryExperimentResult:
    """Outcome of a Monte-Carlo memory experiment."""

    distance: int
    rounds: int
    physical_error_rate: float
    measurement_error_rate: float
    shots: int
    logical_failures: int

    @property
    def logical_error_rate(self) -> float:
        """Probability of a logical failure over the whole experiment."""
        return self.logical_failures / self.shots if self.shots else 0.0

    @property
    def logical_error_per_round(self) -> float:
        """Per-round logical error rate, assuming independent rounds."""
        if self.shots == 0 or self.rounds == 0:
            return 0.0
        survival = 1.0 - self.logical_error_rate
        survival = min(max(survival, 1e-12), 1.0)
        return 1.0 - survival ** (1.0 / self.rounds)

    @property
    def standard_error(self) -> float:
        """Binomial standard error of :attr:`logical_error_rate`."""
        return binomial_standard_error(self.logical_failures, self.shots)

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score confidence interval for the logical error rate."""
        return wilson_interval(self.logical_failures, self.shots, z=z)


# ---------------------------------------------------------------------------
# The repetition matching decoder (graph-protocol adapter)
# ---------------------------------------------------------------------------


def matching_correction(distance: int, pairs) -> np.ndarray:
    """Convert matched defect pairs into per-data-qubit flips.

    ``pairs`` are :class:`~repro.qec.decoder.MatchedPair` objects whose
    coordinates are ``(check position, round)``; a boundary match flips the
    shorter chain to the nearest end, a pair match flips the chain between
    the two checks.
    """
    correction = np.zeros(distance, dtype=np.uint8)
    for pair in pairs:
        position_a = int(pair.first[0])
        if pair.to_boundary:
            if position_a + 1 <= distance - 1 - position_a:
                correction[:position_a + 1] ^= 1
            else:
                correction[position_a + 1:] ^= 1
        else:
            position_b = int(pair.second[0])
            low, high = sorted((position_a, position_b))
            correction[low + 1:high + 1] ^= 1
    return correction


@dataclass(frozen=True)
class MatchingOutcome:
    """Decode outcome of the repetition matching adapter."""

    flips_logical: bool
    correction: np.ndarray
    pairs: tuple


class RepetitionMatchingDecoder(SyndromeBatchDecoder):
    """The classic coordinate matching decoder behind the graph protocol.

    Adapts :func:`repro.qec.decoder.repetition_code_decoder` (Manhattan
    matching on ``(position, round)`` defect coordinates — the decoder the
    per-shot repetition memory experiment always used) to the decoding-graph
    interface, so it plugs into ``decode_batch`` and the batched sampling
    pipeline next to MWPM, Union-Find, lookup and the clique predecoder.
    """

    name = "repetition_matching"

    def __init__(self, graph: DecodingGraph, time_weight: float = 1.0):
        if graph.logical_support != frozenset({0}):
            raise ValueError("RepetitionMatchingDecoder requires a repetition"
                             " decoding graph (logical support {0})")
        self._graph = graph
        self._time_weight = float(time_weight)
        self._decoder: MatchingDecoder = repetition_code_decoder(
            graph.distance, time_weight=self._time_weight)

    @property
    def decoding_graph(self) -> DecodingGraph:
        return self._graph

    def cache_token(self) -> tuple:
        return (self.name, self._time_weight)

    def decode(self, defects: Sequence) -> MatchingOutcome:
        """Match graph detectors ``(check, round)`` and derive the flips."""
        coordinates = [(float(check), float(round_index))
                       for check, round_index in defects]
        pairs = tuple(self._decoder.decode(coordinates))
        correction = matching_correction(self._graph.distance, pairs)
        # Logical support of the repetition graph is data qubit 0.
        return MatchingOutcome(flips_logical=bool(correction[0]),
                               correction=correction, pairs=pairs)


# ---------------------------------------------------------------------------
# The memory experiment
# ---------------------------------------------------------------------------


class RepetitionCodeMemory:
    """Phenomenological-noise memory experiment on a distance-d repetition code.

    Each round every data qubit flips independently with probability ``p``
    and every stabilizer measurement reports the wrong value with probability
    ``q``.  Detectors are syndrome *changes* between consecutive rounds (the
    final round is read out perfectly through data-qubit measurement, the
    standard memory-experiment convention).  Decoding matches detector
    defects on the (space, time) lattice.

    :meth:`run` samples all shots at once through the batched pipeline and
    is deterministic per ``seed`` (repeat calls return the same — typically
    cache-served — result).  :meth:`run_reference` is the historical
    one-shot-at-a-time loop, kept for equivalence testing.
    """

    def __init__(self, distance: int, rounds: Optional[int] = None,
                 physical_error_rate: float = 1e-3,
                 measurement_error_rate: Optional[float] = None,
                 seed: SeedLike = None):
        if distance < 3 or distance % 2 == 0:
            raise ValueError("distance must be an odd integer ≥ 3")
        self.distance = distance
        self.rounds = rounds if rounds is not None else distance
        self.physical_error_rate = float(physical_error_rate)
        self.measurement_error_rate = (self.physical_error_rate
                                       if measurement_error_rate is None
                                       else float(measurement_error_rate))
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._decoder = repetition_code_decoder(distance)
        self._graph: Optional[DecodingGraph] = None
        self._batch_decoder: Optional[RepetitionMatchingDecoder] = None

    # -- batched machinery ------------------------------------------------------
    def _graph_and_decoder(self) -> Tuple[DecodingGraph,
                                          RepetitionMatchingDecoder]:
        if self._graph is None:
            self._graph = repetition_code_graph(
                self.distance, self.rounds, self.physical_error_rate,
                self.measurement_error_rate)
            self._batch_decoder = RepetitionMatchingDecoder(self._graph)
        return self._graph, self._batch_decoder

    # -- single-shot machinery (reference implementation) -----------------------
    def _run_shot(self) -> bool:
        """Run one shot; returns True when a logical failure occurred."""
        d = self.distance
        rounds = self.rounds
        data_error = np.zeros(d, dtype=np.uint8)
        previous_syndrome = np.zeros(d - 1, dtype=np.uint8)
        defects: List[Tuple[float, float]] = []

        for round_index in range(rounds):
            flips = self._rng.random(d) < self.physical_error_rate
            data_error ^= flips.astype(np.uint8)
            syndrome = data_error[:-1] ^ data_error[1:]
            measured = syndrome ^ (self._rng.random(d - 1)
                                   < self.measurement_error_rate).astype(np.uint8)
            changes = measured ^ previous_syndrome
            previous_syndrome = measured
            for position in np.nonzero(changes)[0]:
                defects.append((float(position), float(round_index)))

        # Final perfect readout round: measure data qubits directly, which
        # reveals the true final syndrome.
        final_syndrome = data_error[:-1] ^ data_error[1:]
        changes = final_syndrome ^ previous_syndrome
        for position in np.nonzero(changes)[0]:
            defects.append((float(position), float(rounds)))

        correction = self._correction_from_matching(defects)
        residual = data_error ^ correction
        # A valid residual is a stabilizer (all zeros) or the logical operator
        # (all ones); the decoder guarantees residual has trivial syndrome, so
        # inspecting one qubit suffices.
        return bool(residual[0])

    def _correction_from_matching(self, defects: Sequence[Tuple[float, float]]
                                  ) -> np.ndarray:
        """Convert matched defect pairs into data-qubit flips."""
        return matching_correction(self.distance,
                                   self._decoder.decode(list(defects)))

    # -- experiment -----------------------------------------------------------------
    def _result(self, shots: int, failures: int) -> MemoryExperimentResult:
        return MemoryExperimentResult(
            distance=self.distance,
            rounds=self.rounds,
            physical_error_rate=self.physical_error_rate,
            measurement_error_rate=self.measurement_error_rate,
            shots=shots,
            logical_failures=failures,
        )

    def run(self, shots: int = 200, *, executor=None,
            policy=None,
            use_cache: Optional[bool] = None) -> MemoryExperimentResult:
        """Run ``shots`` through the batched, executor-routed pipeline.

        Deterministic per construction seed: failure counts are bitwise
        identical for any ``policy`` (mode, workers, broker), and seeded
        repeats are served from the executor's expectation cache.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        graph, decoder = self._graph_and_decoder()
        run = run_memory_sampling(graph, decoder, shots, seed=self._seed,
                                  executor=executor, policy=policy,
                                  use_cache=use_cache)
        return self._result(shots, run.failures)

    def run_reference(self, shots: int = 200) -> MemoryExperimentResult:
        """The historical per-shot loop (consumes this instance's RNG)."""
        if shots < 1:
            raise ValueError("need at least one shot")
        failures = sum(1 for _ in range(shots) if self._run_shot())
        return self._result(shots, failures)


def logical_error_rate_sweep(distances: Sequence[int],
                             physical_error_rates: Sequence[float],
                             shots: int = 200,
                             rounds: Optional[int] = None,
                             seed: int = 7,
                             executor=None,
                             policy=None,
                             use_cache: Optional[bool] = None
                             ) -> Dict[Tuple[int, float], float]:
    """Empirical logical error rates over a (distance, physical rate) grid.

    Every grid cell gets an independent child of ``SeedSequence(seed)``
    (spawn keys enumerate the grid row-major), so cells can never collide —
    the historical ``seed + distance * 1000 + int(rate * 1e6)`` derivation
    could hand two cells the same stream.  Seeded cells are cached in the
    execution layer, so re-running a sweep decodes nothing.
    """
    distances = list(distances)
    physical_error_rates = list(physical_error_rates)
    children = np.random.SeedSequence(seed).spawn(
        len(distances) * len(physical_error_rates))
    results: Dict[Tuple[int, float], float] = {}
    for row, distance in enumerate(distances):
        for column, rate in enumerate(physical_error_rates):
            child = children[row * len(physical_error_rates) + column]
            experiment = RepetitionCodeMemory(
                distance, rounds=rounds, physical_error_rate=rate, seed=child)
            result = experiment.run(shots, executor=executor,
                                    policy=policy,
                                    use_cache=use_cache)
            results[(distance, rate)] = result.logical_error_rate
    return results
