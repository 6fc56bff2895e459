"""Tests for the batched QEC Monte-Carlo engine (PR 5).

Covers the four refactor layers:

* the sampling kernel (incidence matmul syndromes, Bernoulli matrix bitwise
  equal to the legacy per-shot sampler, graph fingerprints);
* the ``decode_batch`` protocol (batch-vs-loop bitwise equivalence for all
  five decoders on randomized graphs, the lookup decoder's vectorized table
  path, counter semantics);
* the execution routing (worker-count and inline/thread/process determinism
  of failure counts, process-shard counter fold-back, expectation-cache
  keying with warm-cache zero-decode accounting);
* the consumers (memory experiments batched-vs-reference equality, the
  collision-free sweep seeding, Wilson intervals on both result classes).
"""

import dataclasses
import hashlib
import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.execution import ExecutionPolicy, ExpectationCache, Executor
from repro.qec.decoders import (CliquePredecoder, LookupDecoder, MWPMDecoder,
                                UnionFindDecoder, batch_decode_stats,
                                decoder_cache_token)
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.memory_experiment import (MemoryExperimentResult,
                                         RepetitionCodeMemory,
                                         RepetitionMatchingDecoder,
                                         logical_error_rate_sweep)
from repro.qec import (run_rare_event_sampling, sampling as sampling_module,
                       stream_rare_event_sampling)
from repro.qec.bitops import packed_words, unpack_rows
from repro.qec.sampling import (SHOT_BLOCK, as_seed_sequence,
                                binomial_standard_error,
                                packed_syndromes_and_flips,
                                reset_sampling_stats, run_memory_sampling,
                                run_memory_sampling_reference, sample_errors,
                                sampling_arrays, sampling_stats,
                                stream_memory_sampling,
                                syndromes_and_flips, wilson_interval)
from repro.qec.surface_memory import (SurfaceCodeMemory,
                                      surface_code_memory_experiment)


def _graph_decoder_factories():
    """All five decoders of the ablation set, per graph kind."""

    def lookup(graph):
        return LookupDecoder(graph, max_error_weight=2)

    common = {
        "mwpm": MWPMDecoder,
        "union_find": UnionFindDecoder,
        "lookup": lookup,
        "clique_predecoder": CliquePredecoder,
    }
    repetition_only = {"repetition_matching": RepetitionMatchingDecoder}
    return common, repetition_only


def _random_syndromes(graph, shots, seed, boost=1.0):
    arrays = sampling_arrays(graph)
    rng = np.random.default_rng(seed)
    draws = rng.random((shots, arrays.num_edges))
    errors = (draws < np.minimum(arrays.probabilities * boost, 0.5)
              ).view(np.uint8)
    return syndromes_and_flips(arrays, errors)[0]


# ---------------------------------------------------------------------------
# Sampling kernel
# ---------------------------------------------------------------------------


class TestSamplingKernel:
    def test_arrays_shapes_and_columns(self):
        graph = rotated_surface_code_graph(3, 2, 1e-2)
        arrays = sampling_arrays(graph)
        detectors = graph.detector_order()
        assert arrays.incidence.shape == (len(graph.edges), len(detectors))
        assert detectors == sorted(graph.detectors)
        # Every non-boundary edge endpoint appears in its incidence column.
        for edge in graph.edges:
            touched = np.flatnonzero(arrays.incidence[edge.identifier])
            expected = {detectors.index(node)
                        for node in (edge.node_a, edge.node_b)
                        if node != "boundary"}
            assert set(touched.tolist()) == expected

    def test_arrays_memoized_per_graph(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        assert sampling_arrays(graph) is sampling_arrays(graph)

    def test_bernoulli_matrix_bitwise_matches_legacy_sampler(self):
        """rng.random((S, N)) consumes the stream exactly like S sequential
        rng.random(N) calls, so the kernel and the legacy per-shot sampler
        draw identical error realizations from the same seed."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, 20, np.random.default_rng(11))
        legacy = SurfaceCodeMemory(graph, seed=11)
        for shot in range(20):
            edge_ids = sorted(edge.identifier
                              for edge in legacy.sample_error())
            assert edge_ids == np.flatnonzero(errors[shot]).tolist()

    def test_syndrome_matmul_matches_legacy_syndromes(self):
        graph = rotated_surface_code_graph(3, 2, 0.05)
        arrays = sampling_arrays(graph)
        detectors = graph.detector_order()
        errors = sample_errors(arrays, 40, np.random.default_rng(3))
        syndromes, _ = syndromes_and_flips(arrays, errors)
        edges = graph.edges
        for shot in range(40):
            sample = [edges[e] for e in np.flatnonzero(errors[shot])]
            expected = set(SurfaceCodeMemory.syndrome_of(sample))
            got = {detectors[c] for c in np.flatnonzero(syndromes[shot])}
            assert got == expected

    def test_logical_flips_match_graph_parity(self):
        graph = repetition_code_graph(5, 2, 0.05)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, 60, np.random.default_rng(8))
        _, flips = syndromes_and_flips(arrays, errors)
        edges = graph.edges
        for shot in range(60):
            sample = [edges[e] for e in np.flatnonzero(errors[shot])]
            assert bool(flips[shot]) == graph.correction_flips_logical(sample)


class TestGraphFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = rotated_surface_code_graph(3, 2, 1e-3)
        b = rotated_surface_code_graph(3, 2, 1e-3)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("other", [
        lambda: rotated_surface_code_graph(3, 2, 2e-3),
        lambda: rotated_surface_code_graph(3, 3, 1e-3),
        lambda: rotated_surface_code_graph(5, 2, 1e-3),
        lambda: repetition_code_graph(3, 2, 1e-3),
        lambda: rotated_surface_code_graph(3, 2, 1e-3,
                                           measurement_error_rate=5e-3),
    ])
    def test_different_content_different_fingerprint(self, other):
        base = rotated_surface_code_graph(3, 2, 1e-3)
        assert base.fingerprint() != other().fingerprint()

    def test_fingerprint_invalidates_when_graph_grows(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        before = graph.fingerprint()
        graph.add_edge((0, 0), (1, 0), 1e-3, "space", data_qubit=1,
                       round_index=0)
        assert graph.fingerprint() != before


# ---------------------------------------------------------------------------
# decode_batch protocol
# ---------------------------------------------------------------------------


class TestDecodeBatch:
    @pytest.mark.parametrize("builder,extra", [
        (lambda: rotated_surface_code_graph(3, 2, 0.02), False),
        (lambda: repetition_code_graph(5, 2, 0.03), True),
    ])
    def test_batch_vs_loop_bitwise_for_all_decoders(self, builder, extra):
        graph = builder()
        syndromes = _random_syndromes(graph, 80, seed=5, boost=3.0)
        detectors = graph.detector_order()
        common, repetition_only = _graph_decoder_factories()
        factories = dict(common)
        if extra:
            factories.update(repetition_only)
        for name, factory in factories.items():
            batch = factory(graph).decode_batch(syndromes)
            loop_decoder = factory(graph)
            loop = [bool(loop_decoder.decode(
                [detectors[c] for c in np.flatnonzero(row)]).flips_logical)
                for row in syndromes]
            assert batch.tolist() == loop, f"{name} batch != loop"

    def test_decode_batch_validates_shape(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            MWPMDecoder(graph).decode_batch(np.zeros((4, 3), dtype=np.uint8))

    def test_decode_batch_empty(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        detectors = graph.detector_order()
        out = MWPMDecoder(graph).decode_batch(
            np.zeros((0, len(detectors)), dtype=np.uint8))
        assert out.shape == (0,)

    def test_dedup_counts_unique_syndromes_only(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        detectors = graph.detector_order()
        row = np.zeros(len(detectors), dtype=np.uint8)
        row[0] = 1
        syndromes = np.stack([row] * 7 + [np.zeros_like(row)] * 3)
        before = batch_decode_stats()
        MWPMDecoder(graph).decode_batch(syndromes)
        after = batch_decode_stats()
        assert after.shots_decoded - before.shots_decoded == 10
        assert after.syndromes_decoded - before.syndromes_decoded == 2

    def test_cache_tokens_cover_configuration(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        weight2 = LookupDecoder(graph, max_error_weight=2)
        weight1 = LookupDecoder(graph, max_error_weight=1)
        assert decoder_cache_token(weight2) != decoder_cache_token(weight1)
        assert decoder_cache_token(MWPMDecoder(graph)) == ("mwpm",)
        clique = CliquePredecoder(graph)
        assert "mwpm" in decoder_cache_token(clique)


class TestLookupDecoderBatch:
    def test_vectorized_table_matches_generic_path(self):
        graph = rotated_surface_code_graph(3, 2, 0.02)
        syndromes = _random_syndromes(graph, 60, seed=13, boost=2.0)
        vectorized = LookupDecoder(graph, max_error_weight=2)
        fast = vectorized.decode_batch(syndromes)
        generic = LookupDecoder(graph, max_error_weight=2)
        slow = super(LookupDecoder, generic).decode_batch.__get__(generic)(
            syndromes)
        assert fast.tolist() == slow.tolist()

    def test_unknown_detector_rejected_via_precomputed_set(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        decoder = LookupDecoder(graph, max_error_weight=1)
        assert decoder._known_detectors == frozenset(graph.detectors)
        with pytest.raises(ValueError):
            decoder.decode([(99, 99)])

    def test_fallback_count_counts_unique_batch_misses(self):
        graph = repetition_code_graph(5, 2, 2e-2)
        decoder = LookupDecoder(graph, max_error_weight=1)
        detectors = graph.detector_order()
        # A three-error syndrome lies outside a weight-1 table.
        heavy = np.zeros(len(detectors), dtype=np.uint8)
        heavy[[0, 3, 5]] = 1
        syndromes = np.stack([heavy] * 9 + [np.zeros_like(heavy)])
        decoder.decode_batch(syndromes)
        assert decoder.fallback_count == 1  # unique miss, not per shot
        decoder.reset_counters()
        assert decoder.fallback_count == 0


# ---------------------------------------------------------------------------
# Executor routing: determinism, counters, caching
# ---------------------------------------------------------------------------


class TestShardedDeterminism:
    SHOTS = 2 * SHOT_BLOCK + 17   # three blocks, uneven tail

    def _failures(self, parallel, workers):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        decoder = MWPMDecoder(graph)
        run = run_memory_sampling(graph, decoder, self.SHOTS, seed=321,
                                  executor=Executor(use_cache=False),
                                  parallel=parallel, max_workers=workers)
        return run.failures, run.total_defects

    def test_failure_counts_identical_across_modes_and_workers(self):
        inline = self._failures("none", 1)
        assert self._failures("process", 1) == inline
        assert self._failures("process", 2) == inline
        assert self._failures("process", 4) == inline
        assert self._failures("thread", 2) == inline

    def test_process_shards_recorded_and_counters_folded(self):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        decoder = CliquePredecoder(graph)
        executor = Executor(use_cache=False)
        run_memory_sampling(graph, decoder, self.SHOTS, seed=55,
                            executor=executor, parallel="process",
                            max_workers=2)
        assert executor.stats.process_shards == 2
        # The workers' offload tallies came home across the pickle boundary.
        assert decoder.predecoded_defects + decoder.forwarded_defects > 0

    @pytest.mark.parametrize("rate, shots, workers",
                             [(5e-3, 1024, 2), (2e-2, 8192, 4)])
    def test_spool_stolen_shards_count_once(self, tmp_path, rate, shots,
                                            workers):
        """A spool with no live worker has the parent steal every shard;
        the stolen shards' counters already moved here, so they must not be
        folded again — the totals equal the pool run's at the same worker
        count, and so do a thread pool's.  A rerun over the same spool is
        served from the result files the first run left, and folds them
        like a worker's results."""
        graph = rotated_surface_code_graph(3, 3, rate)

        def sample(policy):
            decoder = CliquePredecoder(graph)
            reset_sampling_stats()
            run = run_memory_sampling(graph, decoder, shots, seed=3,
                                      executor=Executor(use_cache=False),
                                      policy=policy)
            return (run.failures, sampling_stats(),
                    (decoder.predecoded_defects, decoder.forwarded_defects))

        # Sampling fills the graph's lazy caches, which shard payloads
        # pickle: warm them so both spool runs submit the same payloads.
        sample(ExecutionPolicy(parallel="none"))
        pooled = sample(ExecutionPolicy(parallel="process",
                                        max_workers=workers))
        threaded = sample(ExecutionPolicy(parallel="thread",
                                          max_workers=workers))
        assert threaded[0] == pooled[0]
        assert threaded[1] == dataclasses.replace(pooled[1], process_shards=0)
        assert threaded[2] == pooled[2]
        spool = ExecutionPolicy(parallel="process", max_workers=workers,
                                broker=str(tmp_path / "spool"))
        results = tmp_path / "spool" / "results"
        first = sample(spool)
        written = sorted(os.listdir(results))
        second = sample(spool)
        assert sorted(os.listdir(results)) == written  # nothing recomputed
        for stolen in (first, second):
            assert stolen[1].shots_decoded == shots
            assert stolen[1].process_shards == workers
            assert stolen[0] == pooled[0]
            assert stolen[1] == pooled[1]
            assert sum(stolen[2]) > 0
            assert stolen[2] == pooled[2]

    def test_counter_delta_roundtrip(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        decoder = CliquePredecoder(
            graph, backing_decoder=LookupDecoder(graph, max_error_weight=1))
        decoder.predecoded_defects += 4
        decoder._backing.fallback_count += 2
        before = obs.instance_counters(decoder)
        assert "_backing.fallback_count" in before  # nested decoders walk too
        # A worker process moves a pickled copy; the movement replays onto
        # the caller's decoder, nested backing decoder included.
        worker_copy = pickle.loads(pickle.dumps(decoder))
        worker_copy.predecoded_defects += 4
        worker_copy._backing.fallback_count += 2
        delta = obs.delta(before, obs.instance_counters(worker_copy))
        assert delta == {"predecoded_defects": 4, "_backing.fallback_count": 2}
        obs.absorb_instances(decoder, delta)
        assert decoder.predecoded_defects == 8
        assert decoder._backing.fallback_count == 4


class TestExperimentCache:
    def test_seeded_rerun_served_from_cache_with_zero_decodes(self):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        executor = Executor()
        cold = run_memory_sampling(graph, MWPMDecoder(graph), 150, seed=77,
                                   executor=executor)
        assert not cold.from_cache
        reset_sampling_stats()
        warm = run_memory_sampling(graph, MWPMDecoder(graph), 150, seed=77,
                                   executor=executor)
        stats = sampling_stats()
        assert warm.from_cache
        assert (warm.failures, warm.total_defects) == \
            (cold.failures, cold.total_defects)
        assert stats.syndromes_decoded == 0
        assert stats.shots_sampled == 0
        assert stats.cached_experiments == 1

    def test_unseeded_runs_never_cache(self):
        graph = repetition_code_graph(3, 1, 0.01)
        executor = Executor()
        run_memory_sampling(graph, MWPMDecoder(graph), 50, seed=None,
                            executor=executor)
        second = run_memory_sampling(graph, MWPMDecoder(graph), 50, seed=None,
                                     executor=executor)
        assert not second.from_cache

    def test_cache_key_distinguishes_decoders(self):
        graph = rotated_surface_code_graph(3, 2, 0.02)
        executor = Executor()
        run_memory_sampling(graph, MWPMDecoder(graph), 80, seed=5,
                            executor=executor)
        other = run_memory_sampling(graph, UnionFindDecoder(graph), 80,
                                    seed=5, executor=executor)
        assert not other.from_cache

    def test_warm_disk_cache_across_executors(self, tmp_path):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        cold = run_memory_sampling(graph, MWPMDecoder(graph), 120, seed=19,
                                   executor=Executor(cache_dir=tmp_path))
        warm = run_memory_sampling(graph, MWPMDecoder(graph), 120, seed=19,
                                   executor=Executor(cache_dir=tmp_path))
        assert warm.from_cache
        assert warm.failures == cold.failures

    def test_shots_validation(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            run_memory_sampling(graph, MWPMDecoder(graph), 0, seed=1)
        with pytest.raises(ValueError):
            run_memory_sampling_reference(graph, MWPMDecoder(graph), 0)


# ---------------------------------------------------------------------------
# Consumers
# ---------------------------------------------------------------------------


class TestBatchedMemoryExperiments:
    def test_surface_run_matches_reference_bitwise(self):
        graph = rotated_surface_code_graph(3, 3, 0.02)
        common, _ = _graph_decoder_factories()
        for name, factory in common.items():
            batched = SurfaceCodeMemory(graph, factory, seed=31).run(
                300, use_cache=False)
            reference = SurfaceCodeMemory(graph, factory,
                                          seed=31).run_reference(300)
            assert batched.failures == reference.failures, name
            assert batched.average_defects == reference.average_defects

    def test_repetition_run_matches_reference_bitwise(self):
        graph = repetition_code_graph(5, 3, 0.03)
        batched = run_memory_sampling(graph, RepetitionMatchingDecoder(graph),
                                      280, seed=13,
                                      executor=Executor(use_cache=False))
        reference = run_memory_sampling_reference(
            graph, RepetitionMatchingDecoder(graph), 280, seed=13)
        assert batched.failures == reference.failures

    def test_repetition_memory_statistics_sane(self):
        heavy = RepetitionCodeMemory(3, physical_error_rate=0.4,
                                     seed=2).run(150, use_cache=False)
        assert heavy.logical_error_rate > 0.2
        clean = RepetitionCodeMemory(5, physical_error_rate=0.0,
                                     measurement_error_rate=0.0,
                                     seed=1).run(50, use_cache=False)
        assert clean.logical_failures == 0

    def test_repetition_matching_requires_repetition_graph(self):
        graph = rotated_surface_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            RepetitionMatchingDecoder(graph)

    def test_run_reference_keeps_legacy_per_shot_loop(self):
        memory = RepetitionCodeMemory(3, physical_error_rate=0.1, seed=3)
        result = memory.run_reference(40)
        assert result.shots == 40
        assert 0 <= result.logical_failures <= 40

    def test_plain_decode_only_decoder_still_supported(self):
        """The historical 'any decoder with a decode(defects) method'
        contract survives the batch refactor: a decoder without
        decode_batch rides the generic dedup shell, is never cached (no
        cache token pins down its configuration), and matches the decoder
        it wraps bitwise."""

        class PlainDecoder:
            def __init__(self, graph):
                self._inner = MWPMDecoder(graph)

            def decode(self, defects):
                return self._inner.decode(defects)

        graph = rotated_surface_code_graph(3, 2, 0.02)
        executor = Executor()
        plain = SurfaceCodeMemory(graph, PlainDecoder, seed=21)
        first = plain.run(200, executor=executor)
        mwpm = SurfaceCodeMemory(graph, MWPMDecoder, seed=21).run(
            200, use_cache=False)
        assert first.failures == mwpm.failures
        assert decoder_cache_token(plain.decoder) is None
        repeat = run_memory_sampling(graph, PlainDecoder(graph), 200,
                                     seed=21, executor=executor)
        assert not repeat.from_cache  # unknown config is never cached


class TestSweepSeeding:
    def test_sweep_cells_get_distinct_spawned_seeds(self):
        # The historical derivation seed + d*1000 + int(rate*1e6) collides
        # e.g. for (3, 0.003) and (5, 0.001); spawn keys cannot.
        cells = [(3, 0.003), (5, 0.001)]
        old_style = {7 + d * 1000 + int(rate * 1e6) for d, rate in cells}
        assert len(old_style) == 1  # the collision this PR fixes
        children = np.random.SeedSequence(7).spawn(len(cells))
        assert children[0].spawn_key != children[1].spawn_key

    def test_sweep_deterministic_and_complete(self):
        kwargs = dict(shots=120, seed=42, use_cache=False)
        first = logical_error_rate_sweep([3, 5], [0.003, 0.001], **kwargs)
        second = logical_error_rate_sweep([3, 5], [0.003, 0.001], **kwargs)
        assert first == second
        assert set(first) == {(3, 0.003), (3, 0.001), (5, 0.003), (5, 0.001)}

    def test_warm_sweep_decodes_nothing(self, tmp_path):
        grid = dict(distances=[3, 5], physical_error_rates=[0.005, 0.02],
                    shots=150, seed=9)
        cold = logical_error_rate_sweep(
            executor=Executor(cache_dir=tmp_path), **grid)
        reset_sampling_stats()
        warm = logical_error_rate_sweep(
            executor=Executor(cache_dir=tmp_path), **grid)
        stats = sampling_stats()
        assert warm == cold
        assert stats.syndromes_decoded == 0
        assert stats.cached_experiments == 4

    def test_seed_key_encodings(self):
        _, none_key = as_seed_sequence(None)
        assert none_key is None
        _, int_key = as_seed_sequence(9)
        assert int_key == ("seed", 9)
        child = np.random.SeedSequence(9).spawn(2)[1]
        _, child_key = as_seed_sequence(child)
        assert child_key == ("seedseq", "9", (1,))

    def test_seed_sequence_reuse_is_deterministic(self):
        """A caller's SeedSequence is rebuilt, never spawned from: repeat
        runs on the same instance (and run vs run_reference) stay bitwise
        identical, and a pre-spawned sequence equals a fresh one."""
        graph = rotated_surface_code_graph(3, 2, 0.02)
        shared = np.random.SeedSequence(7)
        shared.spawn(3)  # advance the caller-side child counter
        memory = SurfaceCodeMemory(graph, MWPMDecoder, seed=shared)
        first = memory.run(200, use_cache=False)
        second = memory.run(200, use_cache=False)
        reference = memory.run_reference(200)
        fresh = SurfaceCodeMemory(
            graph, MWPMDecoder, seed=np.random.SeedSequence(7)).run(
                200, use_cache=False)
        assert (first.failures == second.failures == reference.failures
                == fresh.failures)


class TestUncertainty:
    def test_wilson_interval_properties(self):
        low, high = wilson_interval(0, 200)
        assert low == 0.0 and 0.0 < high < 0.05
        low, high = wilson_interval(200, 200)
        assert high == 1.0 and low > 0.95
        low, high = wilson_interval(30, 200)
        assert low < 30 / 200 < high
        assert wilson_interval(1, 0) == (0.0, 1.0)

    def test_standard_error_formula(self):
        assert binomial_standard_error(50, 200) == pytest.approx(
            (0.25 * 0.75 / 200) ** 0.5)
        assert binomial_standard_error(0, 0) == 0.0

    def test_both_result_classes_expose_uncertainty(self):
        result = MemoryExperimentResult(
            distance=3, rounds=3, physical_error_rate=1e-3,
            measurement_error_rate=1e-3, shots=200, logical_failures=8)
        outcome = surface_code_memory_experiment(3, 0.02, rounds=2, shots=80,
                                                 seed=5, use_cache=False)
        for stats in (result, outcome):
            assert stats.standard_error > 0
            low, high = stats.wilson_interval()
            assert 0.0 <= low <= stats.logical_error_rate <= high <= 1.0


# ---------------------------------------------------------------------------
# Bit-packed kernel (PR 7)
# ---------------------------------------------------------------------------


class TestPackedKernel:
    """The bit-packed syndrome path: equivalence with the dense reference,
    grouped decoding, cache identity of batch and streamed runs."""

    def test_packed_syndromes_and_flips_match_dense(self):
        graph = rotated_surface_code_graph(3, 2, 0.05)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, 60, np.random.default_rng(4))
        words, flips = packed_syndromes_and_flips(arrays, errors)
        dense_syndromes, dense_flips = syndromes_and_flips(arrays, errors)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_rows(words, arrays.num_detectors),
                              dense_syndromes)
        assert np.array_equal(flips, dense_flips)

    def test_kernels_and_streaming_bitwise_identical_with_real_failures(self):
        graph = rotated_surface_code_graph(3, 2, 0.03)
        decoder = MWPMDecoder(graph)
        shots = 2 * SHOT_BLOCK + 17   # three blocks, uneven tail
        *_, streamed = stream_memory_sampling(
            graph, decoder, shots, seed=321,
            executor=Executor(use_cache=False))
        runs = {
            "packed": run_memory_sampling(
                graph, decoder, shots, seed=321,
                executor=Executor(use_cache=False)),
            "streaming": streamed,
            # dense float32 GEMM syndromes + per-shot decode
            "reference": run_memory_sampling_reference(graph, decoder, shots,
                                                       seed=321),
        }
        assert runs["reference"].failures > 0, \
            "workload should produce failures"
        assert len({run.failures for run in runs.values()}) == 1
        assert len({run.total_defects for run in runs.values()}) == 1

    def test_worker_count_determinism_with_real_failures(self):
        """Small-shot tier-1 version of the benchmark determinism gate:
        failure counts are bitwise identical across shard modes/workers on a
        workload that actually fails, and equal to the dense reference and
        the streamed run."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        shots = 2 * SHOT_BLOCK + 17

        def failures(parallel, workers):
            run = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                      seed=321,
                                      executor=Executor(use_cache=False),
                                      parallel=parallel, max_workers=workers)
            return run.failures, run.total_defects

        inline = failures("none", 1)
        assert inline[0] > 0, "workload should produce real failures"
        assert failures("process", 2) == inline
        assert failures("thread", 2) == inline
        reference = run_memory_sampling_reference(graph, MWPMDecoder(graph),
                                                  shots, seed=321)
        assert (reference.failures, reference.total_defects) == inline
        *_, streamed = stream_memory_sampling(
            graph, MWPMDecoder(graph), shots, seed=321,
            executor=Executor(use_cache=False))
        assert (streamed.failures, streamed.total_defects) == inline

    def test_grouped_decode_bitwise_equal_to_one_group(self, monkeypatch):
        """A shard whose blocks span several decode groups folds exactly
        the counts of one group; only dedup sharing (unique syndromes,
        batch calls) follows the grouping."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        shots = 5 * SHOT_BLOCK + 17   # six blocks, uneven tail

        def sample():
            reset_sampling_stats()
            run = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                      seed=99,
                                      executor=Executor(use_cache=False),
                                      parallel="none")
            return (run.failures, run.total_defects), sampling_stats()

        one_group, one_stats = sample()
        assert one_stats.batch_calls == 1
        row_bytes = packed_words(sampling_arrays(graph).num_detectors) * 8
        monkeypatch.setattr(sampling_module, "_DECODE_GROUP_BYTES",
                            2 * SHOT_BLOCK * row_bytes)  # two blocks a group
        grouped, grouped_stats = sample()
        assert one_group[0] > 0, "workload should produce real failures"
        assert grouped == one_group
        assert grouped_stats.batch_calls == 3
        for field in ("experiments", "cached_experiments", "shots_sampled",
                      "process_shards", "shots_decoded"):
            assert getattr(grouped_stats, field) == getattr(one_stats, field)
        assert one_stats.shots_decoded == shots
        assert (one_stats.syndromes_decoded <= grouped_stats.syndromes_decoded
                <= shots)

    def test_batch_and_stream_share_one_cache_entry(self, tmp_path):
        """A batch run and a streamed run of the same seeded experiment are
        bitwise identical, so they share one cache entry: either re-run of
        a cached experiment is served without decoding a single
        syndrome."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        kwargs = dict(shots=200, seed=9)
        cold = run_memory_sampling(graph, MWPMDecoder(graph),
                                   executor=Executor(cache_dir=tmp_path),
                                   **kwargs)
        reset_sampling_stats()
        warm_runs = [
            run_memory_sampling(graph, MWPMDecoder(graph),
                                executor=Executor(cache_dir=tmp_path),
                                **kwargs),
            *stream_memory_sampling(graph, MWPMDecoder(graph),
                                    executor=Executor(cache_dir=tmp_path),
                                    **kwargs),
        ]
        assert len(warm_runs) == 2   # a warm stream yields one snapshot
        for warm in warm_runs:
            assert warm.from_cache
            assert (warm.failures, warm.total_defects) \
                == (cold.failures, cold.total_defects)
        stats = sampling_stats()
        assert stats.syndromes_decoded == 0
        assert stats.shots_sampled == 0
        assert stats.cached_experiments == 2


class TestCacheKeys:
    """The exact cache key tuples every entry point writes.  Existing disk
    caches keep serving only while these stay put, so each test reads the
    full key set of one small seeded run back from ``executor.cache``."""

    SHOTS = 2 * SHOT_BLOCK + 17   # three blocks, uneven tail

    @staticmethod
    def _executor():
        return Executor(cache=ExpectationCache(), parallel="none")

    @staticmethod
    def _assert_holds_exactly(executor, keys):
        for key in keys:
            assert key in executor.cache, key
        assert len(executor.cache) == len(set(keys))

    def _identity(self, graph, decoder, *extra, shots=None):
        return ((graph.fingerprint(), decoder_cache_token(decoder)) + extra
                + (self.SHOTS if shots is None else shots, 256,
                   ("seed", 5)))

    def test_run_memory_sampling_keys(self):
        graph = repetition_code_graph(3, 2, 0.05)
        decoder = MWPMDecoder(graph)
        executor = self._executor()
        run_memory_sampling(graph, decoder, self.SHOTS, seed=5,
                            executor=executor)
        base = ("qec-memory",) + self._identity(graph, decoder)
        self._assert_holds_exactly(
            executor, [base + ("failures",), base + ("defects",)])

    def test_stream_memory_sampling_keys(self):
        graph = repetition_code_graph(3, 2, 0.05)
        decoder = MWPMDecoder(graph)
        executor = self._executor()
        list(stream_memory_sampling(graph, decoder, self.SHOTS, seed=5,
                                    executor=executor, chunk_blocks=2))
        identity = self._identity(graph, decoder)
        keys = [("qec-memory",) + identity + (name,)
                for name in ("failures", "defects")]
        keys += [("qec-memory-chunk",) + identity + (start, count, name)
                 for start, count in ((0, 2), (2, 1))
                 for name in ("failures", "defects")]
        self._assert_holds_exactly(executor, keys)

    def test_run_rare_event_sampling_keys(self):
        graph = repetition_code_graph(3, 2, 0.05)
        decoder = MWPMDecoder(graph)
        executor = self._executor()
        run_rare_event_sampling(graph, decoder, 1024, seed=5,
                                method="stratified", min_fault_weight=2,
                                max_weight=3, pilot_shots=64,
                                executor=executor)
        base = ("qec-rare",) + self._identity(
            graph, decoder, ("stratified", 2, 3, 64), shots=1024)
        keys = [base + (name,) for name
                in ("estimate", "variance", "ess", "raw", "defects")]
        keys += [base + ("stratum", weight, name) for weight in (2, 3)
                 for name in ("shots", "failures")]
        self._assert_holds_exactly(executor, keys)

    def test_stream_rare_event_sampling_keys(self):
        graph = repetition_code_graph(3, 2, 0.05)
        decoder = MWPMDecoder(graph)
        executor = self._executor()
        *_, final = stream_rare_event_sampling(
            graph, decoder, self.SHOTS, seed=5, method="importance",
            tilt=0.0, chunk_blocks=2, executor=executor)
        assert final.shots == self.SHOTS
        digest = hashlib.blake2b(
            sampling_arrays(graph).probabilities.tobytes(),
            digest_size=16).hexdigest()
        identity = self._identity(graph, decoder, ("importance", digest))
        keys = [("qec-rare",) + identity + (name,) for name
                in ("estimate", "variance", "ess", "raw", "defects")]
        keys += [("qec-rare-chunk",) + identity + ("is", -1, start, count,
                                                    name)
                 for start, count in ((0, 2), (2, 1))
                 for name in ("wf", "wf2", "w", "w2", "raw", "defects",
                              "shots")]
        self._assert_holds_exactly(executor, keys)


class TestSyndromeNormalization:
    """Regression tests for the decode_batch input-normalization contract."""

    def test_non_contiguous_batches_decode_identically(self):
        graph = rotated_surface_code_graph(3, 2, 0.02)
        syndromes = _random_syndromes(graph, 24, seed=13, boost=3.0)
        detectors = graph.detector_order()
        decoder = MWPMDecoder(graph)
        baseline = decoder.decode_batch(syndromes, detectors)
        fortran = np.asfortranarray(syndromes)
        strided = np.repeat(syndromes, 2, axis=0)[::2]
        assert not fortran.flags.c_contiguous
        assert not strided.flags.c_contiguous
        assert np.array_equal(decoder.decode_batch(fortran, detectors),
                              baseline)
        assert np.array_equal(decoder.decode_batch(strided, detectors),
                              baseline)

    def test_unnormalized_input_not_mutated(self):
        graph = repetition_code_graph(3, 2, 1e-3)
        detectors = graph.detector_order()
        decoder = UnionFindDecoder(graph)
        raw = (_random_syndromes(graph, 12, seed=5, boost=50.0)
               .astype(np.int64) * 3)          # values in {0, 3}: needs & 1
        snapshot = raw.copy()
        masked = decoder.decode_batch(raw, detectors)
        assert np.array_equal(raw, snapshot), "caller's array was mutated"
        assert np.array_equal(
            masked, decoder.decode_batch((raw & 1).astype(np.uint8),
                                         detectors))
