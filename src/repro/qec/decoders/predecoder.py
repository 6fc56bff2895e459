"""Clique-style predecoder.

Pre-decoders (e.g. the clique decoder and ProMatch cited in the paper's
Sec. 7) resolve the overwhelmingly common *trivial* syndromes — isolated
defect pairs produced by a single data or measurement error — with a tiny
amount of logic, and only forward the rare hard residue to the expensive
backing decoder.  The figure of merit is the *offload fraction*: how much of
the syndrome stream never reaches the main decoder.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ... import obs
from .base import SyndromeBatchDecoder, decoder_cache_token
from .graph import BOUNDARY, DecodingEdge, DecodingGraph, Detector
from .mwpm import DecodeOutcome, MWPMDecoder


class CliquePredecoder(SyndromeBatchDecoder):
    """Match isolated adjacent defect pairs, delegate the rest."""

    name = "clique_predecoder"
    #: :mod:`repro.obs` instance counters, and the backing decoder's.
    obs_counters = ("predecoded_defects", "forwarded_defects", "_backing")

    def __init__(self, graph: DecodingGraph, backing_decoder: Optional[object] = None):
        self._graph = graph
        self._backing = (backing_decoder if backing_decoder is not None
                         else MWPMDecoder(graph))
        self.predecoded_defects = 0
        self.forwarded_defects = 0

    @property
    def decoding_graph(self) -> DecodingGraph:
        return self._graph

    @property
    def offload_fraction(self) -> float:
        total = self.predecoded_defects + self.forwarded_defects
        return self.predecoded_defects / total if total else 0.0

    def cache_token(self) -> Optional[tuple]:
        backing_token = decoder_cache_token(self._backing)
        if backing_token is None:
            return None
        return (self.name,) + backing_token

    def reset_counters(self) -> None:
        """Zero the offload tallies (fresh accounting for a new batch)."""
        self.predecoded_defects = 0
        self.forwarded_defects = 0

    # -- internals --------------------------------------------------------------
    def _neighbors(self, defect: Detector) -> Set[Detector]:
        return {node for node in self._graph.graph.neighbors(defect)
                if node != BOUNDARY}

    def _is_isolated_pair(self, defect: Detector, partner: Detector,
                          defect_set: Set[Detector]) -> bool:
        """Both defects adjacent, and neither has any other defect neighbor."""
        if partner not in self._neighbors(defect):
            return False
        for node in (defect, partner):
            other_defect_neighbors = self._neighbors(node) & defect_set
            other_defect_neighbors.discard(defect)
            other_defect_neighbors.discard(partner)
            if other_defect_neighbors:
                return False
        return True

    # -- decoding -----------------------------------------------------------------
    def decode(self, defects: Sequence[Detector]) -> DecodeOutcome:
        defect_set = set(defects)
        self._graph.check_defects(defect_set)
        correction: List[DecodingEdge] = []
        matched_pairs: List[Tuple[object, object]] = []
        handled: Set[Detector] = set()
        for defect in sorted(defect_set, key=repr):
            if defect in handled:
                continue
            for partner in sorted(self._neighbors(defect) & defect_set, key=repr):
                if partner in handled or partner == defect:
                    continue
                if self._is_isolated_pair(defect, partner, defect_set - handled):
                    edge = self._graph.edge_between(defect, partner)
                    if edge is None:
                        continue
                    correction.append(edge)
                    matched_pairs.append((defect, partner))
                    handled.update((defect, partner))
                    break
        obs.bump(self, "predecoded_defects", len(handled))
        remaining = [defect for defect in defects if defect not in handled]
        obs.bump(self, "forwarded_defects", len(set(remaining)))
        total_weight = sum(edge.weight for edge in correction)
        if remaining:
            backing_outcome = self._backing.decode(remaining)
            correction.extend(backing_outcome.correction)
            matched_pairs.extend(backing_outcome.matched_pairs)
            total_weight += backing_outcome.total_weight
        return DecodeOutcome(correction=correction, matched_pairs=matched_pairs,
                             total_weight=total_weight)
