"""Minimum-weight matching decoding of detector defects.

The paper extracts error-corrected operation fidelities from Stim simulations
decoded with matching-based decoders.  This module provides the matching
machinery used by :mod:`repro.qec.memory_experiment`: defects (flipped
detectors) living on a space–time lattice are paired up with minimum total
weight, where each defect may alternatively be matched to its nearest code
boundary.

The implementation reduces minimum-weight perfect matching with boundaries to
``networkx.min_weight_matching`` by adding one virtual boundary node per
defect (boundary–boundary edges are free), which is the standard construction
used by practical surface-code decoders.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import networkx as nx

Coordinate = Tuple[float, ...]


@dataclass(frozen=True)
class MatchedPair:
    """A matched pair of defects, or a defect matched to the boundary."""

    first: Coordinate
    second: Optional[Coordinate]  # None means "matched to boundary"
    weight: float

    @property
    def to_boundary(self) -> bool:
        return self.second is None


def manhattan_distance(a: Coordinate, b: Coordinate) -> float:
    """L1 distance between two defect coordinates."""
    if len(a) != len(b):
        raise ValueError("coordinates must have equal dimension")
    return float(sum(abs(x - y) for x, y in zip(a, b)))


class MatchingDecoder:
    """Pairs defects with minimum total weight, allowing boundary matches.

    Parameters
    ----------
    distance_fn:
        Weight of matching two defects together (defaults to Manhattan
        distance on their coordinates).
    boundary_fn:
        Weight of matching a defect to the nearest boundary; ``None`` forbids
        boundary matches (then the number of defects must be even).
    """

    def __init__(self,
                 distance_fn: Callable[[Coordinate, Coordinate], float] = manhattan_distance,
                 boundary_fn: Optional[Callable[[Coordinate], float]] = None):
        self._distance_fn = distance_fn
        self._boundary_fn = boundary_fn

    def decode(self, defects: Sequence[Coordinate]) -> List[MatchedPair]:
        """Return a minimum-weight pairing of the given defects."""
        defects = [tuple(d) for d in defects]
        if not defects:
            return []
        if self._boundary_fn is None and len(defects) % 2 == 1:
            raise ValueError("odd number of defects with no boundary available")

        graph = nx.Graph()
        for index, defect in enumerate(defects):
            graph.add_node(("defect", index))
        # Defect–defect edges.
        for i in range(len(defects)):
            for j in range(i + 1, len(defects)):
                weight = self._distance_fn(defects[i], defects[j])
                graph.add_edge(("defect", i), ("defect", j), weight=weight)
        # Boundary nodes: one per defect; boundary–boundary edges are free so
        # unused boundary nodes pair among themselves at zero cost.
        if self._boundary_fn is not None:
            for index, defect in enumerate(defects):
                graph.add_node(("boundary", index))
                graph.add_edge(("defect", index), ("boundary", index),
                               weight=self._boundary_fn(defect))
            boundary_nodes = [("boundary", i) for i in range(len(defects))]
            for i in range(len(boundary_nodes)):
                for j in range(i + 1, len(boundary_nodes)):
                    graph.add_edge(boundary_nodes[i], boundary_nodes[j], weight=0.0)
        if self._boundary_fn is None and len(defects) == 1:
            raise ValueError("cannot match a single defect without a boundary")

        matching = nx.min_weight_matching(graph)
        pairs: List[MatchedPair] = []
        for node_a, node_b in matching:
            kinds = {node_a[0], node_b[0]}
            if kinds == {"boundary"}:
                continue
            if kinds == {"defect"}:
                first = defects[node_a[1]]
                second = defects[node_b[1]]
                pairs.append(MatchedPair(first, second,
                                         self._distance_fn(first, second)))
            else:
                defect_node = node_a if node_a[0] == "defect" else node_b
                defect = defects[defect_node[1]]
                pairs.append(MatchedPair(defect, None, self._boundary_fn(defect)))
        return pairs

    def total_weight(self, defects: Sequence[Coordinate]) -> float:
        return float(sum(pair.weight for pair in self.decode(defects)))


def repetition_code_decoder(distance: int,
                            time_weight: float = 1.0) -> MatchingDecoder:
    """Decoder for a distance-``d`` repetition-code memory experiment.

    Defect coordinates are ``(position, round)`` with ``position`` the
    boundary index between data qubits (0 … d−2).  Space-like separation costs
    1 per step, time-like separation costs ``time_weight`` per round, and a
    defect may terminate on either chain end.
    """
    # Partials of module-level functions, not closures: the decoder must
    # pickle into process shards.
    return MatchingDecoder(
        distance_fn=functools.partial(_repetition_distance, time_weight),
        boundary_fn=functools.partial(_repetition_boundary, distance))


def _repetition_distance(time_weight: float, a: Coordinate,
                         b: Coordinate) -> float:
    return abs(a[0] - b[0]) + time_weight * abs(a[1] - b[1])


def _repetition_boundary(distance: int, defect: Coordinate) -> float:
    position = defect[0]
    return float(min(position + 1, distance - 1 - position))
