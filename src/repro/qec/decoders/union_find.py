"""Union-Find decoder (cluster growth + erasure peeling).

The Union-Find decoder of Delfosse & Nickerson trades a small amount of
accuracy for almost-linear decoding time, which is exactly the trade the paper
highlights as attractive for the EFT era (Sec. 7).  The implementation here
follows the textbook structure:

1. **Cluster growth** — every defect seeds a cluster; clusters grow outwards
   by one edge layer per step and merge when they touch, until every cluster
   either contains an even number of defects or touches the boundary.
2. **Peeling** — within each grown cluster, a spanning forest is peeled from
   the leaves inwards; a leaf carrying a defect adds its edge to the
   correction and hands the defect to its parent.

The output interface matches :class:`repro.qec.decoders.mwpm.MWPMDecoder` so
the two can be swapped inside the memory experiment and benchmarked head to
head.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .base import SyndromeBatchDecoder
from .graph import BOUNDARY, DecodingEdge, DecodingGraph, Detector
from .mwpm import DecodeOutcome


class _DisjointSet:
    """Union-Find forest with parity and boundary bookkeeping per root."""

    def __init__(self):
        self._parent: Dict[object, object] = {}
        self.defect_parity: Dict[object, int] = {}
        self.touches_boundary: Dict[object, bool] = {}

    def add(self, node, is_defect: bool, is_boundary: bool) -> None:
        if node in self._parent:
            return
        self._parent[node] = node
        self.defect_parity[node] = 1 if is_defect else 0
        self.touches_boundary[node] = is_boundary

    def find(self, node):
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, node_a, node_b) -> None:
        root_a, root_b = self.find(node_a), self.find(node_b)
        if root_a == root_b:
            return
        self._parent[root_b] = root_a
        self.defect_parity[root_a] ^= self.defect_parity[root_b]
        self.touches_boundary[root_a] |= self.touches_boundary[root_b]

    def contains(self, node) -> bool:
        return node in self._parent

    def is_neutral(self, node) -> bool:
        root = self.find(node)
        return self.defect_parity[root] == 0 or self.touches_boundary[root]


class UnionFindDecoder(SyndromeBatchDecoder):
    """Cluster-growth + peeling decoder over a :class:`DecodingGraph`."""

    name = "union_find"

    def __init__(self, graph: DecodingGraph, max_growth_steps: Optional[int] = None):
        self._graph = graph
        # The decoding graph diameter bounds how far growth can ever need to go.
        self._max_growth_steps = (max_growth_steps if max_growth_steps is not None
                                  else graph.graph.number_of_nodes())

    def cache_token(self) -> tuple:
        return (self.name, int(self._max_growth_steps))

    @property
    def decoding_graph(self) -> DecodingGraph:
        return self._graph

    # -- cluster growth --------------------------------------------------------
    def _grow_clusters(self, defects: Sequence[Detector]
                       ) -> Tuple[Set[Tuple[object, object]], _DisjointSet]:
        """Grow clusters until each is even-parity or touches the boundary.

        The virtual boundary node never joins a cluster (it would incorrectly
        merge distant clusters); boundary edges only mark the cluster as
        boundary-touching and enter the erasure for the peeling step.
        """
        graph = self._graph.graph
        clusters = _DisjointSet()
        defect_set = set(defects)
        for defect in defects:
            clusters.add(defect, is_defect=True, is_boundary=False)
        erasure: Set[Tuple[object, object]] = set()

        for _ in range(self._max_growth_steps):
            active = [node for node in graph.nodes
                      if node != BOUNDARY and clusters.contains(node)
                      and not clusters.is_neutral(node)]
            if not active:
                break
            newly_added: List[Tuple[object, object]] = []
            for node in active:
                for neighbor in graph.neighbors(node):
                    if (node, neighbor) in erasure or (neighbor, node) in erasure:
                        continue
                    newly_added.append((node, neighbor))
            for node, neighbor in newly_added:
                erasure.add((node, neighbor))
                if neighbor == BOUNDARY:
                    clusters.touches_boundary[clusters.find(node)] = True
                    continue
                clusters.add(neighbor, is_defect=neighbor in defect_set,
                             is_boundary=False)
                clusters.union(node, neighbor)
        return erasure, clusters

    # -- peeling ----------------------------------------------------------------
    def _peel_cluster(self, cluster_nodes: Set[object],
                      erasure_graph: nx.Graph,
                      defects: Set[Detector],
                      use_boundary: bool) -> List[DecodingEdge]:
        """Peel one cluster's spanning tree into correction edges."""
        nodes = set(cluster_nodes)
        if use_boundary and BOUNDARY in erasure_graph:
            nodes.add(BOUNDARY)
        subgraph = erasure_graph.subgraph(
            node for node in nodes if node in erasure_graph)
        cluster_defects = cluster_nodes & defects
        if not cluster_defects:
            return []
        if use_boundary and BOUNDARY in subgraph:
            root = BOUNDARY
        else:
            root = next(iter(cluster_defects))
        component = nx.node_connected_component(subgraph, root)
        subgraph = subgraph.subgraph(component)
        tree = nx.bfs_tree(subgraph, root)
        order = list(nx.topological_sort(tree))
        carries_defect = {node: node in cluster_defects for node in subgraph}
        correction: List[DecodingEdge] = []
        for node in reversed(order):
            if node == root:
                continue
            parent = next(tree.predecessors(node))
            if carries_defect[node]:
                edge = subgraph.get_edge_data(node, parent)["edge_ref"]
                correction.append(edge)
                carries_defect[node] = False
                if parent != BOUNDARY:
                    carries_defect[parent] = not carries_defect[parent]
        return correction

    def _peel(self, erasure: Set[Tuple[object, object]],
              clusters: _DisjointSet,
              defects: Sequence[Detector]) -> List[DecodingEdge]:
        if not erasure:
            return []
        erasure_graph = nx.Graph()
        for node_a, node_b in erasure:
            edge = self._graph.edge_between(node_a, node_b)
            if edge is None:
                continue
            erasure_graph.add_edge(node_a, node_b, edge_ref=edge)
        defect_set = set(defects)
        # Group cluster members by their union-find root.
        members: Dict[object, Set[object]] = {}
        for node in list(clusters.defect_parity):
            if not clusters.contains(node):
                continue
            members.setdefault(clusters.find(node), set()).add(node)
        correction: List[DecodingEdge] = []
        for root, nodes in members.items():
            parity_odd = clusters.defect_parity[root] == 1
            correction.extend(self._peel_cluster(
                nodes, erasure_graph, defect_set, use_boundary=parity_odd))
        return correction

    # -- decoding -----------------------------------------------------------------
    def decode(self, defects: Sequence[Detector]) -> DecodeOutcome:
        defects = list(dict.fromkeys(defects))
        if not defects:
            return DecodeOutcome([], [], 0.0)
        self._graph.check_defects(defects)
        erasure, clusters = self._grow_clusters(defects)
        correction = self._peel(erasure, clusters, defects)
        total_weight = sum(edge.weight for edge in correction)
        return DecodeOutcome(correction=correction, matched_pairs=[],
                             total_weight=total_weight)
