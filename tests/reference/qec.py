"""Dense, per-shot QEC memory sampling: the correctness reference.

:func:`repro.qec.sampling.run_memory_sampling` draws every shot of a block
as one Bernoulli matrix, extracts syndromes with the bit-packed gather
kernel and decodes each *unique* syndrome once.  The functions here do the
same job the way it was done before: syndromes from a dense float32 GEMM
against the incidence matrix, every shot decoded on its own, and a
one-shot-at-a-time error sampler over the graph's edges.  They exist only
for the equivalence tests and as the baselines of the QEC speed gates in
``benchmarks/``; the optimized paths must match them bitwise.
"""

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.qec.decoders.graph import BOUNDARY, DecodingEdge, DecodingGraph
from repro.qec.sampling import (SamplingArrays, SamplingRun, SeedLike,
                                _shot_blocks, as_seed_sequence,
                                sample_errors, sampling_arrays)

#: float32 copies of each arrays object's incidence matrix and logical mask,
#: made once per graph as they were when ``SamplingArrays`` carried them, so
#: the dense kernel the ≥2x gate times pays no conversion per call.  Keyed
#: by ``id`` (the frozen dataclass holds arrays and cannot be hashed); the
#: entry keeps its arrays object alive so an id is never reused.
_float32_copies: Dict[int, Tuple[SamplingArrays, np.ndarray, np.ndarray]] = {}


def _float32(arrays: SamplingArrays) -> Tuple[np.ndarray, np.ndarray]:
    entry = _float32_copies.get(id(arrays))
    if entry is None:
        entry = (arrays, arrays.incidence.astype(np.float32),
                 arrays.logical_mask.astype(np.float32))
        _float32_copies[id(arrays)] = entry
    return entry[1], entry[2]


def syndromes_and_flips(arrays: SamplingArrays, errors: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(syndromes, logical flips)`` of the dense kernel.

    Integer matmuls bypass BLAS, so the count matmuls run in float32 —
    exact while detector degrees stay below float32's 2^24 integer ceiling,
    the limit the packed kernel removes — and the ``& 1`` recovers the XOR
    of incident error edges per detector (and along the logical mask).
    """
    incidence, logical_mask = _float32(arrays)
    errors_f32 = errors.astype(np.float32)
    syndromes = (errors_f32 @ incidence).astype(np.uint8) & 1
    flips = (errors_f32 @ logical_mask).astype(np.uint8) & 1
    return syndromes, flips


def run_memory_sampling_reference(graph: DecodingGraph, decoder,
                                  shots: int, *,
                                  seed: SeedLike = None) -> SamplingRun:
    """Per-shot reference for :func:`repro.qec.sampling.run_memory_sampling`.

    Draws the *identical* per-block error samples (same ``SeedSequence``
    children, same Bernoulli matrix) but decodes every shot individually
    through the decoder's ``decode`` — no deduplication, no batching, no
    caching.  Failure and defect counts are therefore bitwise identical to
    the batched path.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    seed_sequence, _ = as_seed_sequence(seed)
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    failures = 0
    total_defects = 0
    for seed_child, block_shots in _shot_blocks(seed_sequence, shots):
        rng = np.random.default_rng(seed_child)
        errors = sample_errors(arrays, block_shots, rng)
        syndromes, error_flips = syndromes_and_flips(arrays, errors)
        for row in range(block_shots):
            defects = [detectors[column]
                       for column in np.flatnonzero(syndromes[row])]
            outcome = decoder.decode(defects)
            failures += int(bool(outcome.flips_logical)
                            != bool(error_flips[row]))
            total_defects += len(defects)
    return SamplingRun(shots=int(shots), failures=failures,
                       total_defects=total_defects, from_cache=False)


def sample_error(graph: DecodingGraph,
                 rng: np.random.Generator) -> List[DecodingEdge]:
    """One shot's independent errors: the edges whose uniform draw falls
    below their probability, one ``rng.random(n_edges)`` per call."""
    edges = graph.edges
    draws = rng.random(len(edges))
    return [edge for edge, draw in zip(edges, draws)
            if draw < 1.0 / (1.0 + math.exp(edge.weight))]


def syndrome_of(error_edges: Sequence[DecodingEdge]) -> List:
    """Detectors flipped an odd number of times by the error edges."""
    counts: Dict[object, int] = {}
    for edge in error_edges:
        for node in (edge.node_a, edge.node_b):
            if node == BOUNDARY:
                continue
            counts[node] = counts.get(node, 0) + 1
    return [node for node, count in counts.items() if count % 2]
