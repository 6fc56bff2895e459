"""Bounded-weight lookup-table decoder.

Astrea-style decoders precompute the correction for every syndrome reachable
from a small number of elementary errors, which is feasible for the small code
distances of the EFT era.  This decoder enumerates all error sets up to
``max_error_weight`` elementary mechanisms (decoding-graph edges), stores the
minimum-weight correction for every resulting syndrome, and falls back to a
backing decoder (MWPM by default) for syndromes outside the table.

For batched Monte-Carlo decoding the table is additionally compiled into a
packed-bit array (one row per table syndrome, columns following the graph's
canonical detector order), so :meth:`LookupDecoder.decode_batch` probes the
whole unique-syndrome matrix with one ``np.searchsorted`` instead of a
Python dict lookup per shot; only the (rare) misses reach the fallback.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ... import obs
from ..bitops import pack_rows, unpack_rows
from .base import SyndromeBatchDecoder, decoder_cache_token
from .graph import BOUNDARY, DecodingEdge, DecodingGraph, Detector
from .mwpm import DecodeOutcome, MWPMDecoder


def syndrome_of_edges(edges: Sequence[DecodingEdge]) -> FrozenSet[Detector]:
    """Detectors flipped an odd number of times by a set of error edges."""
    counts: Dict[Detector, int] = {}
    for edge in edges:
        for node in (edge.node_a, edge.node_b):
            if node == BOUNDARY:
                continue
            counts[node] = counts.get(node, 0) + 1
    return frozenset(node for node, count in counts.items() if count % 2)


class LookupDecoder(SyndromeBatchDecoder):
    """Exhaustive bounded-weight decoder with a configurable fallback.

    ``fallback_count`` counts decodes the table could not serve.  On the
    per-shot :meth:`decode` path that is one count per call; on the batched
    :meth:`decode_batch` path it is one count per **unique** syndrome
    outside the table (duplicates of a shot never re-count).  Use
    :meth:`reset_counters` to start fresh accounting for a new batch.
    """

    name = "lookup"
    #: :mod:`repro.obs` instance counters, and the fallback decoder's.
    obs_counters = ("fallback_count", "_fallback")

    def __init__(self, graph: DecodingGraph, max_error_weight: int = 2,
                 fallback: Optional[object] = None):
        if max_error_weight < 1:
            raise ValueError("max_error_weight must be at least 1")
        self._graph = graph
        self._max_error_weight = int(max_error_weight)
        self._fallback = fallback if fallback is not None else MWPMDecoder(graph)
        # The detector set is fixed at construction; validating incoming
        # defects against this set is O(len(defects)) instead of a graph
        # lookup per defect per call.
        self._known_detectors = frozenset(graph.detectors)
        self._table = self._build_table()
        self._batch_table: Optional[Tuple[np.ndarray, np.ndarray,
                                          List[Detector]]] = None
        self.fallback_count = 0

    @property
    def decoding_graph(self) -> DecodingGraph:
        return self._graph

    @property
    def table_size(self) -> int:
        return len(self._table)

    @property
    def max_error_weight(self) -> int:
        return self._max_error_weight

    def cache_token(self) -> Optional[tuple]:
        fallback_token = decoder_cache_token(self._fallback)
        if fallback_token is None:
            return None
        return (self.name, int(self._max_error_weight)) + fallback_token

    def reset_counters(self) -> None:
        """Zero ``fallback_count`` (fresh accounting for a new batch)."""
        self.fallback_count = 0

    def _build_table(self) -> Dict[FrozenSet[Detector], Tuple[DecodingEdge, ...]]:
        table: Dict[FrozenSet[Detector], Tuple[DecodingEdge, ...]] = {
            frozenset(): ()}
        edges = self._graph.edges
        for weight in range(1, self._max_error_weight + 1):
            for combination in itertools.combinations(edges, weight):
                syndrome = syndrome_of_edges(combination)
                total = sum(edge.weight for edge in combination)
                existing = table.get(syndrome)
                if existing is None or total < sum(e.weight for e in existing):
                    table[syndrome] = tuple(combination)
        return table

    # -- vectorized batch path ----------------------------------------------
    def _compiled_batch_table(self) -> Tuple[np.ndarray, np.ndarray,
                                             List[Detector]]:
        """``(sorted packed-word keys, per-row logical flips, detectors)``.

        Each table syndrome becomes one bit-packed ``uint64`` word row
        (:func:`repro.qec.bitops.pack_rows` layout); rows are sorted
        lexicographically over their raw bytes so a batch of query rows
        resolves with a single ``np.searchsorted``, and packed query
        batches probe the table without ever materializing dense rows.
        """
        if self._batch_table is None:
            detectors = self._graph.detector_order()
            index = {detector: i for i, detector in enumerate(detectors)}
            masks = np.zeros((len(self._table), len(detectors)),
                             dtype=np.uint8)
            flips = np.zeros(len(self._table), dtype=bool)
            for row, (syndrome, correction) in enumerate(self._table.items()):
                for detector in syndrome:
                    masks[row, index[detector]] = 1
                flips[row] = (sum(1 for edge in correction
                                  if edge.flips_logical) % 2 == 1)
            keys = self._word_keys(pack_rows(masks, len(detectors)))
            order = np.argsort(keys)
            self._batch_table = (keys[order], flips[order], detectors)
        return self._batch_table

    @staticmethod
    def _word_keys(words: np.ndarray) -> np.ndarray:
        """Fixed-length bytes view of packed word rows.

        The S dtype gives a total lexicographic order with a well-defined
        ``searchsorted``; rows share a length and packed tail bits are
        zero, so trailing-null trimming cannot conflate two rows.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        return words.view(f"S{words.shape[1] * words.itemsize}").ravel()

    def _decode_unique(self, unique: np.ndarray,
                       detectors: Sequence[Detector]) -> np.ndarray:
        haystack, table_flips, table_detectors = \
            self._compiled_batch_table()
        if list(detectors) != table_detectors:
            # Foreign column order: fall back to the generic per-row path.
            return super()._decode_unique(unique, detectors)
        return self._probe_table(
            self._word_keys(pack_rows(unique, len(table_detectors))),
            lambda row: np.flatnonzero(unique[row]))

    def _decode_unique_packed(self, unique_words: np.ndarray,
                              detectors: Sequence[Detector]) -> np.ndarray:
        haystack, table_flips, table_detectors = \
            self._compiled_batch_table()
        if list(detectors) != table_detectors:
            return super()._decode_unique_packed(unique_words, detectors)
        # Misses are rare (the table covers all low-weight syndromes), so
        # only miss rows ever get unpacked to dense bits.
        return self._probe_table(
            self._word_keys(unique_words),
            lambda row: np.flatnonzero(
                unpack_rows(unique_words[row], len(table_detectors))))

    def _probe_table(self, queries: np.ndarray, defect_columns) -> np.ndarray:
        """One ``searchsorted`` probe; ``defect_columns(row)`` serves misses."""
        haystack, table_flips, table_detectors = self._compiled_batch_table()
        positions = np.searchsorted(haystack, queries)
        positions = np.minimum(positions, len(haystack) - 1)
        hits = haystack[positions] == queries
        flips = np.zeros(queries.shape[0], dtype=bool)
        flips[hits] = table_flips[positions[hits]]
        for row in np.flatnonzero(~hits):
            defects = [table_detectors[column]
                       for column in defect_columns(int(row))]
            obs.bump(self, "fallback_count")
            flips[row] = bool(self._fallback.decode(defects).flips_logical)
        return flips

    # -- per-shot path -------------------------------------------------------
    def decode(self, defects: Sequence[Detector]) -> DecodeOutcome:
        syndrome = frozenset(defects)
        unknown = syndrome - self._known_detectors
        if unknown:
            raise ValueError(f"unknown detector {next(iter(unknown))!r}")
        entry = self._table.get(syndrome)
        if entry is None:
            obs.bump(self, "fallback_count")
            # Canonical (sorted) defect order: degenerate matchings then
            # tie-break identically however the syndrome was delivered,
            # keeping the per-shot and batched paths bitwise equal.
            return self._fallback.decode(sorted(syndrome))
        correction = list(entry)
        return DecodeOutcome(correction=correction, matched_pairs=[],
                             total_weight=sum(edge.weight for edge in correction))
