"""Minimum-weight perfect matching decoder.

The reference decoder for surface codes: every defect (flipped detector) is
matched either to another defect or to the boundary such that the total weight
of the implied error chains is minimal.  Pairwise chain weights are exact
Dijkstra distances on the decoding graph.  Two paths compute them:

* the per-shot :meth:`MWPMDecoder.decode` builds the defect graph and runs
  networkx's blossom implementation (``max_weight_matching`` on negated
  weights), returning the correction edges;
* the batched path (``decode_batch`` / ``decode_batch_packed``) needs only
  each unique syndrome's logical-flip verdict.  An optimal matching involves
  only the defects' own distance submatrix (the locality argument of sparse
  blossom, Higgott & Gidney, arXiv:2303.15933), so a subset DP over that
  submatrix finds the minimum weight and the *set* of logical parities that
  reach it.  A single parity is the verdict.  A tie between parities, or more
  than :data:`_DP_MAX_DEFECTS` defects, is left to ``decode()``, so the
  verdicts equal ``decode().flips_logical`` by construction.

Both paths read one process-wide :class:`_MatchingTable` per graph, keyed by
its fingerprint: Dijkstra rows filled lazily one source at a time from
networkx's own ``single_source_dijkstra``, the distance and logical parity of
the path networkx picked for every pair in each orientation, and a memo from
packed syndrome bytes to verdict, so each distinct syndrome of a graph is
matched once per process across jobs, chunks and decoder instances.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ... import obs
from ..bitops import pack_rows, unpack_rows
from .base import SyndromeBatchDecoder
from .graph import BOUNDARY, DecodingEdge, DecodingGraph, Detector


@dataclass
class DecodeOutcome:
    """Correction edges plus bookkeeping shared by all decoders."""

    correction: List[DecodingEdge]
    matched_pairs: List[Tuple[object, object]]
    total_weight: float

    @property
    def flips_logical(self) -> bool:
        return sum(1 for edge in self.correction if edge.flips_logical) % 2 == 1


# ---------------------------------------------------------------------------
# Per-graph matching tables (process-wide, LRU-bounded)
# ---------------------------------------------------------------------------

#: Most defects the batched path matches by subset DP.  The DP costs
#: ``O(n 2^n)``: on a 2-vCPU VM (networkx 3.6.1, rotated surface code
#: d=3..7) it took 0.7-1.3 ms at 10 defects against networkx's 2.0-3.9 ms,
#: and 2.6-2.9 ms at 11 against 2.2-5.0 ms.
_DP_MAX_DEFECTS = 10

#: Two matching weights closer than this are tied.
_TIE_TOLERANCE = 1e-9

#: Byte ceiling of the tables' distance and parity arrays (``9 N (N + 1)``
#: bytes for ``N`` detectors: 0.3 MiB at d=7 with 7 rounds, 28 MiB at d=15
#: with 15; networkx's path dicts beside them are not weighed).  The oldest
#: tables are evicted first; the newest always stays.
_TABLE_MAX_BYTES = 64 * 1024 * 1024
_TABLES: "OrderedDict[Tuple[str, int], _MatchingTable]" = OrderedDict()
_TABLE_LOCK = threading.Lock()
_TABLE_BYTES = 0

#: Most memoized verdicts per table; later syndromes are matched, not kept.
_MEMO_MAX_ENTRIES = 1 << 18


class _MatchingTable:
    """Dijkstra rows, chain parities and a verdict memo for one graph.

    Rows and columns follow the graph's ``detector_order()``; column ``N``
    is the boundary.  ``distance[i, j]`` and ``parity[i, j]`` are the length
    and logical parity of the path networkx's ``single_source_dijkstra``
    picked from detector ``i`` to ``j``; row ``i`` is valid once
    ``rows[i]`` holds networkx's ``(distances, paths)``.
    """

    def __init__(self, graph: DecodingGraph):
        self.detectors = graph.detector_order()
        self.index = {detector: i for i, detector in enumerate(self.detectors)}
        size = len(self.detectors)
        self.distance = np.full((size, size + 1), np.inf)
        self.parity = np.zeros((size, size + 1), dtype=np.uint8)
        self.rows: List[Optional[Tuple[Dict, Dict]]] = [None] * size
        self.verdicts: Dict[bytes, bool] = {}
        self.lock = threading.Lock()
        self.nbytes = self.distance.nbytes + self.parity.nbytes

    def row(self, graph: DecodingGraph, i: int) -> Tuple[Dict, Dict]:
        """networkx's ``(distances, paths)`` from detector ``i``, filling
        the row on first use."""
        row = self.rows[i]
        if row is not None:
            return row
        distances, paths = nx.single_source_dijkstra(
            graph.graph, self.detectors[i], weight="weight")
        distance_row = np.full(len(self.detectors) + 1, np.inf)
        parity_row = np.zeros(len(self.detectors) + 1, dtype=np.uint8)
        for target, path in paths.items():
            column = (len(self.detectors) if target == BOUNDARY
                      else self.index[target])
            distance_row[column] = distances[target]
            parity_row[column] = graph.correction_flips_logical(
                graph.path_edges(path))
        with self.lock:
            if self.rows[i] is None:
                self.distance[i] = distance_row
                self.parity[i] = parity_row
                self.rows[i] = (distances, paths)
            return self.rows[i]


def _matching_table(graph: DecodingGraph) -> _MatchingTable:
    """The shared table of ``graph``, created on first use.

    Keyed by content, not identity: equal graphs built apart (by two
    callers, or by the service after its decode memo dropped one) must
    share one table.  The node count
    joins the fingerprint because isolated detectors carry no edge.
    """
    global _TABLE_BYTES
    key = (graph.fingerprint(), graph.graph.number_of_nodes())
    with _TABLE_LOCK:
        table = _TABLES.get(key)
        if table is not None:
            _TABLES.move_to_end(key)
            return table
        table = _MatchingTable(graph)
        _TABLES[key] = table
        _TABLE_BYTES += table.nbytes
        while _TABLE_BYTES > _TABLE_MAX_BYTES and len(_TABLES) > 1:
            _, evicted = _TABLES.popitem(last=False)
            _TABLE_BYTES -= evicted.nbytes
        return table


def clear_matching_tables() -> None:
    """Drop every matching table and memoized verdict (mainly for tests)."""
    global _TABLE_BYTES
    with _TABLE_LOCK:
        _TABLES.clear()
        _TABLE_BYTES = 0


# ---------------------------------------------------------------------------
# Subset-DP matching
# ---------------------------------------------------------------------------

#: ``_XOR_SETS[a][b]``: parities ``x ^ y`` for ``x`` in ``a``, ``y`` in
#: ``b``, each set a bit mask (bit ``p`` set: parity ``p`` is reachable).
_XOR_SETS = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3))


def _min_weight_parities(boundary: Sequence[float], boundary_sets: Sequence[int],
                         pairs: Sequence[Sequence[float]],
                         pair_sets: Sequence[Sequence[int]]) -> int:
    """Parity set (bit mask) of the minimum-weight matchings of ``n`` defects.

    ``boundary[i]`` is defect ``i``'s distance to the boundary and
    ``pairs[i][j]`` (``i < j``) the distance between defects ``i`` and
    ``j``; ``boundary_sets`` / ``pair_sets`` hold their chains' parity
    sets.  The lowest defect of each subset is matched to the boundary or
    to another defect of the subset.  Candidates within
    :data:`_TIE_TOLERANCE` of the best pool their parities.
    """
    full = (1 << len(boundary)) - 1
    weight = [0.0] * (full + 1)
    sets = [0] * (full + 1)
    sets[0] = 1
    # Defect 0 leaves first, so only subsets without it (and the full set)
    # are ever reached.
    for mask in itertools.chain(range(2, full, 2), (full,)):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        best = weight[rest] + boundary[i]
        found = _XOR_SETS[sets[rest]][boundary_sets[i]]
        distances, parities = pairs[i], pair_sets[i]
        others = rest
        while others:
            bit = others & -others
            others ^= bit
            j = bit.bit_length() - 1
            sub = rest ^ bit
            candidate = weight[sub] + distances[j]
            if candidate < best - _TIE_TOLERANCE:
                best = candidate
                found = _XOR_SETS[sets[sub]][parities[j]]
            elif candidate <= best + _TIE_TOLERANCE:
                best = min(best, candidate)
                found |= _XOR_SETS[sets[sub]][parities[j]]
        weight[mask] = best
        sets[mask] = found
    return sets[full]


class MWPMDecoder(SyndromeBatchDecoder):
    """Exact minimum-weight perfect matching on the defect graph.

    The reference surface-code decoder: defects (flipped stabilizer
    measurements) are paired up so the total corrected error weight is
    minimal.  Slower than
    :class:`~repro.qec.decoders.union_find.UnionFindDecoder` but optimal,
    which is why the memory experiments use it as the accuracy baseline.
    Example::

        decoder = MWPMDecoder(decoding_graph)
        correction = decoder.decode(syndrome)

    ``decode`` runs networkx's maximum-weight matching over negated path
    lengths.  Batched Monte-Carlo pipelines call :meth:`decode_batch`
    instead (from :class:`~repro.qec.decoders.base.SyndromeBatchDecoder`),
    which decodes each unique syndrome once: by subset DP over the defects'
    distance submatrix, from the per-graph verdict memo, or — for tied
    parities and large defect sets — through ``decode``.
    ``fallback_count`` counts the unique syndromes resolved that last way.
    """

    name = "mwpm"
    #: :mod:`repro.obs` instance counters.
    obs_counters = ("fallback_count",)

    def __init__(self, graph: DecodingGraph):
        self._graph = graph
        self.fallback_count = 0

    def cache_token(self) -> tuple:
        # Configuration-free: the name pins down the behaviour exactly.
        return (self.name,)

    @property
    def decoding_graph(self) -> DecodingGraph:
        return self._graph

    # -- internals -----------------------------------------------------------
    def _chain(self, table: _MatchingTable, source,
               target) -> Tuple[float, List[DecodingEdge]]:
        distances, paths = table.row(self._graph, table.index[source])
        if target not in distances:
            raise ValueError(f"no path between {source} and {target}")
        return distances[target], self._graph.path_edges(paths[target])

    # -- decoding ------------------------------------------------------------
    def decode(self, defects: Sequence[Detector]) -> DecodeOutcome:
        """Match the defects and return the implied correction edges.

        Each defect may be matched to another defect or to its own copy of the
        virtual boundary node; the standard construction adds one boundary
        twin per defect, connected to its defect at the defect-to-boundary
        distance and to the other twins at zero weight.
        """
        defects = list(dict.fromkeys(defects))
        if not defects:
            return DecodeOutcome([], [], 0.0)
        self._graph.check_defects(defects)
        table = _matching_table(self._graph)

        matching_graph = nx.Graph()
        boundary_twin = {defect: ("twin", index)
                         for index, defect in enumerate(defects)}
        for i, defect_i in enumerate(defects):
            distance_to_boundary, _ = self._chain(table, defect_i, BOUNDARY)
            matching_graph.add_edge(defect_i, boundary_twin[defect_i],
                                    weight=-distance_to_boundary)
            for j in range(i + 1, len(defects)):
                defect_j = defects[j]
                pair_distance, _ = self._chain(table, defect_i, defect_j)
                matching_graph.add_edge(defect_i, defect_j,
                                        weight=-pair_distance)
                matching_graph.add_edge(boundary_twin[defect_i],
                                        boundary_twin[defect_j], weight=0.0)

        matching = nx.max_weight_matching(matching_graph, maxcardinality=True)

        correction: List[DecodingEdge] = []
        matched_pairs: List[Tuple[object, object]] = []
        total_weight = 0.0
        for node_a, node_b in matching:
            a_is_twin = isinstance(node_a, tuple) and node_a and node_a[0] == "twin"
            b_is_twin = isinstance(node_b, tuple) and node_b and node_b[0] == "twin"
            if a_is_twin and b_is_twin:
                continue
            if a_is_twin or b_is_twin:
                defect = node_b if a_is_twin else node_a
                weight, chain = self._chain(table, defect, BOUNDARY)
                matched_pairs.append((defect, BOUNDARY))
            else:
                weight, chain = self._chain(table, node_a, node_b)
                matched_pairs.append((node_a, node_b))
            total_weight += weight
            correction.extend(chain)
        return DecodeOutcome(correction=correction, matched_pairs=matched_pairs,
                             total_weight=total_weight)

    # -- batched path --------------------------------------------------------
    def _decode_unique(self, unique: np.ndarray,
                       detectors: Sequence[Detector]) -> np.ndarray:
        return self._verdicts(pack_rows(unique), unique, detectors)

    def _decode_unique_packed(self, unique_words: np.ndarray,
                              detectors: Sequence[Detector]) -> np.ndarray:
        return self._verdicts(unique_words, None, detectors)

    def _verdicts(self, words: np.ndarray, dense: Optional[np.ndarray],
                  detectors: Sequence[Detector]) -> np.ndarray:
        """Verdicts of unique syndromes, given packed (and maybe dense).

        The memo is keyed by packed bytes, so it serves only columns in the
        canonical ``detector_order()``.
        """
        table = _matching_table(self._graph)
        flips = np.zeros(words.shape[0], dtype=bool)
        memo = table.verdicts if list(detectors) == table.detectors else None
        if memo is None:
            misses = np.arange(words.shape[0])
        else:
            keys = [row.tobytes() for row in words]
            known = [memo.get(key) for key in keys]
            misses = np.array([row for row, verdict in enumerate(known)
                               if verdict is None], dtype=np.intp)
            flips[:] = [bool(verdict) for verdict in known]
        if misses.size == 0:
            return flips
        rows = (dense[misses] if dense is not None
                else unpack_rows(words[misses], len(detectors)))
        flips[misses] = self._match(table, rows, detectors)
        if memo is not None:
            with table.lock:
                for row in misses[:max(_MEMO_MAX_ENTRIES - len(memo), 0)]:
                    memo[keys[row]] = bool(flips[row])
        return flips

    def _match(self, table: _MatchingTable, rows: np.ndarray,
               detectors: Sequence[Detector]) -> np.ndarray:
        """Verdicts of dense syndrome rows: subset DP, else ``decode``."""
        columns = np.array([table.index.get(detector, -1)
                            for detector in detectors], dtype=np.intp)
        counts = rows.sum(axis=1)
        flips = np.zeros(rows.shape[0], dtype=bool)
        undecided = counts > 0
        for count in np.unique(counts[undecided & (counts <= _DP_MAX_DEFECTS)]):
            members = np.flatnonzero(counts == count)
            index = columns[np.nonzero(rows[members])[1].reshape(-1, int(count))]
            # Unknown detectors are left for decode() to reject.
            known = (index >= 0).all(axis=1)
            members, index = members[known], index[known]
            for i in np.unique(index).tolist():
                table.row(self._graph, i)
            boundary = table.distance[index, -1]
            pairs = table.distance[index[:, :, None], index[:, None, :]]
            forward = table.parity[index[:, :, None], index[:, None, :]]
            boundary_sets = (1 << table.parity[index, -1]).tolist()
            pair_sets = ((1 << forward)
                         | (1 << forward.transpose(0, 2, 1))).tolist()
            # An unreachable pair makes decode() raise; leave it to decode().
            finite = (np.isfinite(boundary).all(axis=1)
                      & np.isfinite(pairs).all(axis=(1, 2)))
            boundary, pairs = boundary.tolist(), pairs.tolist()
            for k in np.flatnonzero(finite):
                found = _min_weight_parities(boundary[k], boundary_sets[k],
                                             pairs[k], pair_sets[k])
                if found != 3:  # a single parity
                    flips[members[k]] = found == 2
                    undecided[members[k]] = False
        for row in np.flatnonzero(undecided):
            obs.bump(self, "fallback_count")
            defects = [detectors[column] for column in np.flatnonzero(rows[row])]
            flips[row] = bool(self.decode(defects).flips_logical)
        return flips
