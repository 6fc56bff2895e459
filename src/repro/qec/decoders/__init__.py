"""Syndrome decoders for surface-code quantum error correction.

The paper (Sec. 7) notes that approximate, low-cost decoders — Union-Find,
clique-style predecoders, lookup-table decoders — are "particularly attractive
in the EFT era due to less stringent error rate requirements".  This package
implements the decoding substrate so those trade-offs can be measured rather
than asserted:

* :mod:`repro.qec.decoders.graph` — space-time decoding graphs for the
  repetition code and the rotated surface code under phenomenological noise;
* :mod:`repro.qec.decoders.mwpm` — minimum-weight perfect matching on the
  defect graph (exact distances via Dijkstra; per-shot matching via
  networkx blossom, batched verdicts via a subset DP over the defects'
  distance submatrix, with ties and large syndromes left to networkx);
* :mod:`repro.qec.decoders.union_find` — the Union-Find cluster-growth +
  peeling decoder (almost-linear time, slightly lower threshold);
* :mod:`repro.qec.decoders.lookup` — a bounded-weight lookup-table decoder
  (an Astrea-style exhaustive decoder for small distances);
* :mod:`repro.qec.decoders.predecoder` — a clique-style predecoder that
  resolves isolated adjacent defect pairs before handing the residual
  syndrome to a backing decoder.

Every decoder implements the per-shot ``decode(defects)`` contract plus the
batched ``decode_batch(syndromes)`` protocol from
:mod:`repro.qec.decoders.base` (unique-syndrome deduplication, decode
accounting).  Decode counts and the decoders' diagnostic counters live in
:mod:`repro.obs`, which carries a process shard's movement of them home.
The memory-experiment driver that exercises all of them lives in
:mod:`repro.qec.surface_memory`, and the batched Monte-Carlo sampling
pipeline in :mod:`repro.qec.sampling`.
"""

from .base import (BatchDecodeStats, SyndromeBatchDecoder, batch_decode,
                   batch_decode_packed, batch_decode_stats,
                   decoder_cache_token, reset_batch_decode_stats)
from .graph import (DecodingEdge, DecodingGraph, repetition_code_graph,
                    rotated_surface_code_graph)
from .lookup import LookupDecoder
from .mwpm import MWPMDecoder
from .predecoder import CliquePredecoder
from .union_find import UnionFindDecoder

__all__ = [
    "BatchDecodeStats",
    "CliquePredecoder",
    "DecodingEdge",
    "DecodingGraph",
    "LookupDecoder",
    "MWPMDecoder",
    "SyndromeBatchDecoder",
    "UnionFindDecoder",
    "batch_decode",
    "batch_decode_packed",
    "batch_decode_stats",
    "decoder_cache_token",
    "repetition_code_graph",
    "reset_batch_decode_stats",
    "rotated_surface_code_graph",
]
