"""Tests for decoding graphs, decoders and surface-code memory experiments."""

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.qec.decoders.graph import (BOUNDARY, repetition_code_graph,
                                      rotated_surface_code_graph,
                                      rotated_surface_code_stabilizers)
from repro.qec.decoders.lookup import LookupDecoder, syndrome_of_edges
from repro.qec.decoders import mwpm as mwpm_module
from repro.qec.decoders.mwpm import MWPMDecoder, clear_matching_tables
from repro.qec.decoders.predecoder import CliquePredecoder
from repro.qec.decoders.union_find import UnionFindDecoder
from repro.qec.sampling import sampling_arrays, syndromes_and_flips
from repro.qec.surface_memory import (SurfaceCodeMemory, decoder_comparison,
                                      logical_error_rate_curve,
                                      repetition_code_memory_experiment,
                                      surface_code_memory_experiment)


# ---------------------------------------------------------------------------
# Decoding graphs
# ---------------------------------------------------------------------------

class TestRepetitionCodeGraph:
    def test_detector_count(self):
        graph = repetition_code_graph(5, rounds=3, data_error_rate=1e-3)
        # (d − 1) stabilizers × (rounds + 1 perfect round)
        assert len(graph.detectors) == 4 * 4

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            repetition_code_graph(4, 3, 1e-3)
        with pytest.raises(ValueError):
            repetition_code_graph(1, 3, 1e-3)
        with pytest.raises(ValueError):
            repetition_code_graph(5, 0, 1e-3)

    def test_every_data_qubit_has_space_edges_each_round(self):
        distance, rounds = 5, 2
        graph = repetition_code_graph(distance, rounds, 1e-3)
        space = [edge for edge in graph.edges if edge.kind in ("space", "boundary")]
        assert len(space) == distance * (rounds + 1)

    def test_boundary_edges_at_chain_ends(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        boundary_qubits = {edge.data_qubit for edge in graph.edges
                           if edge.kind == "boundary"}
        assert boundary_qubits == {0, 2}

    def test_edge_weight_monotonic_in_probability(self):
        low = repetition_code_graph(3, 1, 1e-4)
        high = repetition_code_graph(3, 1, 1e-2)
        low_weight = low.space_edges()[0].weight
        high_weight = high.space_edges()[0].weight
        assert low_weight > high_weight

    def test_logical_support_is_single_qubit(self):
        graph = repetition_code_graph(5, 1, 1e-3)
        assert graph.logical_support == frozenset({0})


class TestRotatedSurfaceCodeGraph:
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_stabilizer_count(self, distance):
        supports, _ = rotated_surface_code_stabilizers(distance)
        assert len(supports) == (distance ** 2 - 1) // 2

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_every_data_qubit_in_one_or_two_stabilizers(self, distance):
        supports, _ = rotated_surface_code_stabilizers(distance)
        membership = {qubit: 0 for qubit in range(distance ** 2)}
        for support in supports:
            for qubit in support:
                membership[qubit] += 1
        assert set(membership.values()) <= {1, 2}
        # Exactly the top and bottom rows touch a single Z stabilizer.
        single = {qubit for qubit, count in membership.items() if count == 1}
        expected = ({qubit for qubit in range(distance)}
                    | {qubit for qubit in range(distance * (distance - 1),
                                                distance ** 2)})
        assert single == expected

    @pytest.mark.parametrize("distance", [3, 5])
    def test_logical_support_crosses_the_lattice(self, distance):
        _, logical = rotated_surface_code_stabilizers(distance)
        assert len(logical) == distance

    @pytest.mark.parametrize("distance", [3, 5])
    def test_logical_x_columns_are_undetected_and_cross_logical_z(self, distance):
        """An X error on a full column is syndrome-free (every Z stabilizer
        overlaps it on an even number of qubits) and anticommutes with the
        logical-Z row — i.e. it is a logical X operator."""
        supports, logical = rotated_surface_code_stabilizers(distance)
        logical_set = set(logical)
        for column in range(distance):
            column_qubits = {row * distance + column for row in range(distance)}
            for support in supports:
                assert len(set(support) & column_qubits) % 2 == 0
            assert len(column_qubits & logical_set) % 2 == 1

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            rotated_surface_code_stabilizers(4)

    def test_graph_detector_count(self):
        distance, rounds = 3, 2
        graph = rotated_surface_code_graph(distance, rounds, 1e-3)
        assert len(graph.detectors) == 4 * (rounds + 1)

    def test_time_edges_connect_consecutive_rounds(self):
        graph = rotated_surface_code_graph(3, 2, 1e-3)
        time_edges = [edge for edge in graph.edges if edge.kind == "time"]
        assert len(time_edges) == 4 * 2
        for edge in time_edges:
            (stab_a, round_a), (stab_b, round_b) = edge.node_a, edge.node_b
            assert stab_a == stab_b
            assert abs(round_a - round_b) == 1


# ---------------------------------------------------------------------------
# Decoder correctness
# ---------------------------------------------------------------------------

def _decoder_factories():
    return {
        "mwpm": MWPMDecoder,
        "union_find": UnionFindDecoder,
        "lookup": lambda graph: LookupDecoder(graph, max_error_weight=2),
        "clique+mwpm": CliquePredecoder,
    }


def _syndrome_matches(graph, correction, defects):
    """The correction must reproduce exactly the observed defect set."""
    return syndrome_of_edges(correction) == frozenset(defects)


@pytest.mark.parametrize("decoder_name,factory", sorted(_decoder_factories().items()))
class TestDecoderContracts:
    def test_empty_syndrome_gives_empty_correction(self, decoder_name, factory):
        graph = rotated_surface_code_graph(3, 1, 1e-3)
        outcome = factory(graph).decode([])
        assert outcome.correction == []
        assert not outcome.flips_logical

    def test_unknown_detector_rejected(self, decoder_name, factory):
        graph = rotated_surface_code_graph(3, 1, 1e-3)
        # The virtual boundary is a graph node but never a detector.
        for defect in [(99, 99), BOUNDARY]:
            with pytest.raises(ValueError, match="unknown detector"):
                factory(graph).decode([defect])

    def test_single_error_corrections_are_valid_and_harmless(self, decoder_name,
                                                             factory):
        """Decoding the syndrome of any single elementary error must produce a
        correction with the same syndrome and no net logical flip."""
        graph = rotated_surface_code_graph(3, 2, 1e-3)
        decoder = factory(graph)
        for error_edge in graph.edges:
            defects = list(syndrome_of_edges([error_edge]))
            outcome = decoder.decode(defects)
            assert _syndrome_matches(graph, outcome.correction, defects), \
                f"{decoder_name} produced an inconsistent correction"
            assert outcome.flips_logical == error_edge.flips_logical, \
                f"{decoder_name} mis-corrected a single {error_edge.kind} error"

    def test_repetition_code_single_errors(self, decoder_name, factory):
        graph = repetition_code_graph(5, 2, 1e-3)
        decoder = factory(graph)
        for error_edge in graph.space_edges()[:10]:
            defects = list(syndrome_of_edges([error_edge]))
            outcome = decoder.decode(defects)
            assert _syndrome_matches(graph, outcome.correction, defects)
            assert outcome.flips_logical == error_edge.flips_logical


class TestMWPMSpecifics:
    def test_two_adjacent_errors_matched_cheaply(self):
        graph = repetition_code_graph(5, 1, 1e-3)
        decoder = MWPMDecoder(graph)
        # Two data errors on qubits 1 and 2 in round 0 leave defects on
        # checks 0 and 2 (the middle check is hit twice).
        edges = [edge for edge in graph.space_edges()
                 if edge.round_index == 0 and edge.data_qubit in (1, 2)]
        defects = list(syndrome_of_edges(edges))
        outcome = decoder.decode(defects)
        assert _syndrome_matches(graph, outcome.correction, defects)
        assert not outcome.flips_logical

    def test_weight_reflects_path_length(self):
        graph = repetition_code_graph(5, 1, 1e-3)
        decoder = MWPMDecoder(graph)
        single = decoder.decode([(0, 0), (1, 0)])
        double = decoder.decode([(0, 0), (3, 0)])
        assert double.total_weight > single.total_weight

    def test_duplicate_defects_deduplicated(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        decoder = MWPMDecoder(graph)
        outcome = decoder.decode([(0, 0), (0, 0), (1, 0)])
        assert _syndrome_matches(graph, outcome.correction, {(0, 0), (1, 0)})

    def test_tied_parity_syndrome_goes_to_networkx(self):
        # Defects on stabilizer 0 in round 0 and stabilizer 1 in round 1
        # have minimum-weight matchings of both logical parities, so the
        # subset DP cannot decide and the batched path asks decode().
        clear_matching_tables()
        graph = rotated_surface_code_graph(3, 1, 1e-3)
        decoder = MWPMDecoder(graph)
        detectors = graph.detector_order()
        defects = [(0, 0), (1, 1)]
        syndrome = np.zeros((1, len(detectors)), dtype=np.uint8)
        syndrome[0, [detectors.index(defect) for defect in defects]] = 1
        table = mwpm_module._matching_table(graph)
        index = [table.index[defect] for defect in defects]
        flip_batched = decoder.decode_batch(syndrome)[0]
        assert decoder.fallback_count == 1
        parities = {int(table.parity[index[0], index[1]]),
                    int(table.parity[index[1], index[0]]),
                    int(table.parity[index[0], -1] ^ table.parity[index[1], -1])}
        assert parities == {0, 1}
        assert flip_batched == decoder.decode(defects).flips_logical

    def test_single_parity_syndromes_skip_networkx(self):
        clear_matching_tables()
        graph = rotated_surface_code_graph(3, 2, 1e-3)
        decoder = MWPMDecoder(graph)
        syndromes = np.stack([np.isin(np.arange(len(graph.detectors)),
                                      syndrome_columns).astype(np.uint8)
                              for syndrome_columns in ([], [0], [5], [2, 9])])
        flips = decoder.decode_batch(syndromes)
        assert decoder.fallback_count == 0
        detectors = graph.detector_order()
        for row, flip in zip(syndromes, flips):
            defects = [detectors[column] for column in np.flatnonzero(row)]
            assert flip == decoder.decode(defects).flips_logical

    def test_large_syndromes_go_to_networkx(self):
        clear_matching_tables()
        graph = rotated_surface_code_graph(5, 2, 1e-3)
        decoder = MWPMDecoder(graph)
        detectors = graph.detector_order()
        cap = mwpm_module._DP_MAX_DEFECTS
        syndrome = np.zeros((1, len(detectors)), dtype=np.uint8)
        syndrome[0, :cap + 1] = 1
        flip = decoder.decode_batch(syndrome)[0]
        assert decoder.fallback_count == 1
        assert flip == decoder.decode(detectors[:cap + 1]).flips_logical

    def test_permuted_columns_match_and_bypass_the_memo(self):
        clear_matching_tables()
        graph = rotated_surface_code_graph(3, 2, 0.05)
        decoder = MWPMDecoder(graph)
        detectors = graph.detector_order()[::-1]
        syndromes = _random_syndromes(graph, 40, seed=5)
        flips = decoder.decode_batch(syndromes, detectors)
        assert mwpm_module._matching_table(graph).verdicts == {}
        for row, flip in zip(syndromes, flips):
            defects = [detectors[column] for column in np.flatnonzero(row)]
            assert flip == decoder.decode(defects).flips_logical

    def test_boundary_column_rejected_on_the_batched_path(self):
        graph = rotated_surface_code_graph(3, 1, 1e-3)
        detectors = graph.detector_order() + [BOUNDARY]
        syndrome = np.zeros((1, len(detectors)), dtype=np.uint8)
        syndrome[0, [0, -1]] = 1
        with pytest.raises(ValueError, match="unknown detector"):
            MWPMDecoder(graph).decode_batch(syndrome, detectors)


def _random_syndromes(graph, shots, seed):
    """Syndromes of random error subsets (every row physically reachable)."""
    arrays = sampling_arrays(graph)
    rng = np.random.default_rng(seed)
    errors = (rng.random((shots, arrays.num_edges)) < 0.06).astype(np.uint8)
    return syndromes_and_flips(arrays, errors)[0]


class TestMatchingTables:
    """The process-wide per-graph matching table and verdict memo."""

    def setup_method(self):
        clear_matching_tables()

    def teardown_method(self):
        clear_matching_tables()

    def test_equal_graphs_share_one_table_and_memo(self):
        first_graph = rotated_surface_code_graph(3, 2, 0.05)
        second_graph = rotated_surface_code_graph(3, 2, 0.05)
        assert first_graph is not second_graph
        syndromes = _random_syndromes(first_graph, 200, seed=3)
        first, second = MWPMDecoder(first_graph), MWPMDecoder(second_graph)
        first_flips = first.decode_batch(syndromes)
        assert first.fallback_count > 0  # the d=3 sample holds tied parities
        second_flips = second.decode_batch(syndromes)
        assert np.array_equal(first_flips, second_flips)
        assert len(mwpm_module._TABLES) == 1
        table = mwpm_module._matching_table(second_graph)
        assert table is mwpm_module._matching_table(first_graph)
        assert len(table.verdicts) == len(np.unique(syndromes, axis=0))
        # Every verdict came from the memo the first decoder filled.
        assert second.fallback_count == 0

    def test_concurrent_batches_give_identical_verdicts(self):
        graph = rotated_surface_code_graph(5, 2, 0.03)
        syndromes = _random_syndromes(graph, 120, seed=11)
        detectors = graph.detector_order()
        reference = MWPMDecoder(graph)
        expected = [reference.decode([detectors[column] for column
                                      in np.flatnonzero(row)]).flips_logical
                    for row in syndromes]
        clear_matching_tables()
        barrier = threading.Barrier(4)

        def run(seed):
            # Each thread builds its own graph, as every service job does.
            barrier.wait(timeout=60)
            order = np.random.default_rng(seed).permutation(len(syndromes))
            own_graph = rotated_surface_code_graph(5, 2, 0.03)
            flips = MWPMDecoder(own_graph).decode_batch(syndromes[order])
            result = np.empty_like(flips)
            result[order] = flips
            return result

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, seed) for seed in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert result.tolist() == expected
        assert len(mwpm_module._TABLES) == 1
        table = mwpm_module._matching_table(graph)
        assert len(table.verdicts) == len(np.unique(syndromes, axis=0))
        filled = [row is not None for row in table.rows]
        assert np.isfinite(table.distance[filled]).all()
        assert np.isinf(table.distance[np.logical_not(filled)]).all()

    def test_table_accounting_under_concurrent_eviction(self, monkeypatch):
        # Threads create and evict tables concurrently; a lost update would
        # leave the byte count disagreeing with the entries, or over the cap.
        graphs = [rotated_surface_code_graph(3, 1, 0.01 * (k + 1))
                  for k in range(5)]
        table_bytes = mwpm_module._MatchingTable(graphs[0]).nbytes
        monkeypatch.setattr(mwpm_module, "_TABLE_MAX_BYTES", 2 * table_bytes)
        errors = []

        def decode_round_robin(offset):
            try:
                for step in range(40):
                    graph = graphs[(offset + step) % len(graphs)]
                    MWPMDecoder(graph).decode([graph.detector_order()[0]])
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode_round_robin, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert mwpm_module._TABLE_BYTES == sum(
            table.nbytes for table in mwpm_module._TABLES.values())
        assert mwpm_module._TABLE_BYTES <= 2 * table_bytes

    def test_byte_bound_evicts_the_oldest_table(self, monkeypatch):
        graphs = [rotated_surface_code_graph(3, 2, rate)
                  for rate in (0.01, 0.02, 0.03)]
        table_bytes = mwpm_module._matching_table(graphs[0]).nbytes
        clear_matching_tables()
        monkeypatch.setattr(mwpm_module, "_TABLE_MAX_BYTES", 2 * table_bytes)
        tables = [mwpm_module._matching_table(graph) for graph in graphs]
        assert len(mwpm_module._TABLES) == 2
        assert mwpm_module._TABLE_BYTES == 2 * table_bytes
        assert mwpm_module._matching_table(graphs[2]) is tables[2]
        assert mwpm_module._matching_table(graphs[1]) is tables[1]
        # The evicted first table is rebuilt empty on its next use.
        assert mwpm_module._matching_table(graphs[0]) is not tables[0]
        assert mwpm_module._TABLE_BYTES == sum(
            table.nbytes for table in mwpm_module._TABLES.values())

    def test_fallback_count_folds_back_across_processes(self):
        decoder = MWPMDecoder(rotated_surface_code_graph(3, 1, 1e-3))
        before = obs.instance_counters(decoder)
        assert before == {"fallback_count": 0}
        worker_copy = pickle.loads(pickle.dumps(decoder))
        worker_copy.fallback_count += 3
        delta = obs.delta(before, obs.instance_counters(worker_copy))
        obs.absorb_instances(decoder, delta)
        assert decoder.fallback_count == 3


class TestLookupDecoder:
    def test_table_contains_trivial_syndrome(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        decoder = LookupDecoder(graph, max_error_weight=1)
        assert decoder.table_size >= 1 + len(graph.edges) - 1

    def test_invalid_weight(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            LookupDecoder(graph, max_error_weight=0)

    def test_fallback_used_for_heavy_syndromes(self):
        graph = repetition_code_graph(5, 2, 2e-2)
        decoder = LookupDecoder(graph, max_error_weight=1)
        # A three-error syndrome is outside a weight-1 table.
        edges = [edge for edge in graph.space_edges()
                 if edge.round_index == 0 and edge.data_qubit in (0, 2, 4)]
        defects = list(syndrome_of_edges(edges))
        outcome = decoder.decode(defects)
        assert decoder.fallback_count >= 1
        assert _syndrome_matches(graph, outcome.correction, defects)


class TestCliquePredecoder:
    def test_offload_fraction_tracks_isolated_pairs(self):
        graph = repetition_code_graph(7, 1, 1e-3)
        predecoder = CliquePredecoder(graph)
        # A single data error in the bulk creates one isolated adjacent pair.
        bulk_edge = next(edge for edge in graph.space_edges()
                         if edge.kind == "space" and edge.round_index == 0)
        defects = list(syndrome_of_edges([bulk_edge]))
        outcome = predecoder.decode(defects)
        assert _syndrome_matches(graph, outcome.correction, defects)
        assert predecoder.predecoded_defects == 2
        assert predecoder.offload_fraction == 1.0

    def test_hard_syndrome_forwarded_to_backing_decoder(self):
        graph = repetition_code_graph(7, 1, 1e-3)
        predecoder = CliquePredecoder(graph)
        # Errors on adjacent qubits produce defects two checks apart — not an
        # adjacent pair, so they must be forwarded.
        edges = [edge for edge in graph.space_edges()
                 if edge.round_index == 0 and edge.data_qubit in (2, 3)]
        defects = list(syndrome_of_edges(edges))
        outcome = predecoder.decode(defects)
        assert _syndrome_matches(graph, outcome.correction, defects)
        assert predecoder.forwarded_defects >= 1


# ---------------------------------------------------------------------------
# Memory experiments
# ---------------------------------------------------------------------------

class TestSurfaceCodeMemory:
    def test_zero_noise_never_fails(self):
        outcome = surface_code_memory_experiment(3, 1e-9, rounds=1, shots=50)
        assert outcome.logical_error_rate == 0.0

    def test_extreme_noise_often_fails(self):
        outcome = surface_code_memory_experiment(3, 0.4, rounds=2, shots=80,
                                                 seed=5)
        assert outcome.logical_error_rate > 0.1

    def test_logical_rate_decreases_with_distance_below_threshold(self):
        p = 0.01
        small = surface_code_memory_experiment(3, p, rounds=3, shots=300, seed=1)
        large = surface_code_memory_experiment(5, p, rounds=5, shots=300, seed=1)
        assert large.logical_error_rate <= small.logical_error_rate + 0.02

    def test_shots_validation(self):
        graph = rotated_surface_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            SurfaceCodeMemory(graph).run(0)

    def test_per_round_rate_below_total(self):
        outcome = surface_code_memory_experiment(3, 0.05, rounds=3, shots=200,
                                                 seed=2)
        assert outcome.logical_error_per_round <= outcome.logical_error_rate + 1e-12

    def test_repetition_code_experiment_runs(self):
        outcome = repetition_code_memory_experiment(5, 0.02, shots=200, seed=4)
        assert 0.0 <= outcome.logical_error_rate <= 1.0
        assert outcome.code == "repetition"

    def test_decoder_comparison_runs_all_decoders(self):
        results = decoder_comparison(3, 0.02, _decoder_factories(), shots=60,
                                     code="repetition")
        assert set(results) == set(_decoder_factories())
        for outcome in results.values():
            assert 0.0 <= outcome.logical_error_rate <= 0.6

    def test_union_find_close_to_mwpm_at_low_noise(self):
        results = decoder_comparison(3, 0.01,
                                     {"mwpm": MWPMDecoder,
                                      "union_find": UnionFindDecoder},
                                     shots=300, code="repetition", seed=9)
        assert (results["union_find"].logical_error_rate
                <= results["mwpm"].logical_error_rate + 0.08)

    def test_logical_error_rate_curve_shape(self):
        curve = logical_error_rate_curve([3], [1e-3, 5e-2], shots=120,
                                         code="repetition")
        assert curve[(3, 1e-3)] <= curve[(3, 5e-2)] + 0.02


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_mwpm_corrections_always_match_syndrome(seed):
    """For random multi-error samples the MWPM correction must always
    reproduce the observed syndrome exactly."""
    graph = rotated_surface_code_graph(3, 2, 0.05)
    rng = np.random.default_rng(seed)
    edges = [edge for edge in graph.edges if rng.random() < 0.08]
    defects = list(syndrome_of_edges(edges))
    outcome = MWPMDecoder(graph).decode(defects)
    assert syndrome_of_edges(outcome.correction) == frozenset(defects)
