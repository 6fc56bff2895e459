"""Rare-event estimation: weight-stratified subset sampling over the
edge-Bernoulli error model.

The load-bearing contracts:

* **Golden bits** — two seeded MWPM runs, batch and streamed, reproduce
  the estimate, variance, effective sample size and per-stratum counts
  recorded as ``float.hex`` before the tilted importance sampler was
  removed from the module.
* **Fan-out independence** — results are bitwise identical for any
  worker count, inline or pooled.
* **Exactness of the stratum math** — stratum probabilities match the
  binomial/Poisson-binomial exactly, conditional samples carry exactly
  their stratum's weight, and strata below the decoder's minimum fault
  weight are never decoded (only MWPM on a uniform-weight graph skips
  any).
* **Caching** — seeded runs warm the expectation cache (zero decodes on
  repeat), and killed streaming runs resume from chunk checkpoints with
  bitwise-identical snapshots.
* **Consumers** — ``method="rare-event"`` on the memory-experiment
  drivers and the ``qec_rare_event`` service job kind return the
  variance-reduced estimate end to end.
"""

import math

import numpy as np
import pytest

from repro.execution import ExecutionPolicy, Executor
from repro.qec import (RareEventMemoryOutcome, RareEventResult,
                       logical_error_rate_curve, run_rare_event_sampling,
                       stream_rare_event_sampling,
                       surface_code_memory_experiment)
from repro.qec.decoders import (CliquePredecoder, LookupDecoder,
                                MWPMDecoder, UnionFindDecoder)
from repro.qec.bitops import unpack_rows
from repro.qec.decoders.base import (batch_decode, batch_decode_packed,
                                     batch_decode_stats)
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.rare_event import (_allocate_main_shots,
                                  _conditional_include_table,
                                  _RareEventSpec, _resolve_spec,
                                  _sample_fixed_weight,
                                  effective_wilson_interval,
                                  minimum_fault_weight,
                                  stratum_probabilities)
from repro.qec.sampling import (packed_syndromes_and_flips,
                                run_memory_sampling, sample_errors,
                                sampling_arrays)

from reference.qec import syndromes_and_flips


def _executor():
    return Executor(use_cache=False)


def small_graph(p=0.08):
    return repetition_code_graph(3, 2, p)


# ---------------------------------------------------------------------------
# stratum math
# ---------------------------------------------------------------------------


class TestStratumMath:
    def test_stratum_probabilities_binomial(self):
        p = np.full(12, 0.03)
        dist, tail = stratum_probabilities(p, 5)
        for w in range(6):
            assert dist[w] == pytest.approx(
                math.comb(12, w) * 0.03 ** w * 0.97 ** (12 - w), rel=1e-12)
        assert math.fsum(dist.tolist()) + tail == pytest.approx(1.0)

    def test_stratum_probabilities_heterogeneous(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.001, 0.3, size=9)
        dist, tail = stratum_probabilities(p, 9)
        # brute force over all 2^9 subsets
        exact = np.zeros(10)
        for mask in range(2 ** 9):
            bits = [(mask >> i) & 1 for i in range(9)]
            prob = math.prod(p[i] if bits[i] else 1 - p[i] for i in range(9))
            exact[sum(bits)] += prob
        assert np.allclose(dist, exact, rtol=1e-10)
        assert tail == pytest.approx(0.0, abs=1e-12)

    def test_minimum_fault_weight(self):
        def mwpm_bound(graph):
            return minimum_fault_weight(graph, MWPMDecoder(graph))

        assert mwpm_bound(small_graph()) == 2                    # d=3
        assert mwpm_bound(repetition_code_graph(5, 2, 0.01)) == 3  # d=5
        assert mwpm_bound(rotated_surface_code_graph(7, 2, 0.01)) == 4
        # mixed edge weights void the ⌈d/2⌉ argument even for MWPM
        mixed = repetition_code_graph(5, 2, 0.01, 0.002)
        assert minimum_fault_weight(mixed, MWPMDecoder(mixed)) == 1
        graph = repetition_code_graph(5, 2, 0.01)
        for decoder in (UnionFindDecoder(graph),
                        LookupDecoder(graph, max_error_weight=2),
                        CliquePredecoder(graph)):
            assert minimum_fault_weight(graph, decoder) == 1

    @pytest.mark.parametrize("distance", [3, 5])
    def test_default_strata_start_per_decoder(self, distance):
        """Only MWPM skips strata below ⌈d/2⌉ by default; every other
        decoder is estimated from weight 1 up."""
        graph = repetition_code_graph(distance, 2, 0.01)
        arrays = sampling_arrays(graph)

        def first_stratum(decoder):
            spec = _resolve_spec(graph, decoder, arrays, 4096, None, None,
                                 64, 1e-3)
            return spec.strata[0]

        assert first_stratum(MWPMDecoder(graph)) == (distance + 1) // 2
        assert first_stratum(UnionFindDecoder(graph)) == 1
        assert first_stratum(LookupDecoder(graph, max_error_weight=2)) == 1
        assert first_stratum(CliquePredecoder(graph)) == 1


class TestConditionalSampling:
    def test_fixed_weight_rows(self):
        graph = small_graph(0.05)
        arrays = sampling_arrays(graph)
        for weight in (1, 2, 4):
            include = _conditional_include_table(arrays.probabilities,
                                                 weight)
            errors = _sample_fixed_weight(arrays, weight, 300,
                                          np.random.default_rng(7), include)
            assert errors.shape == (300, arrays.num_edges)
            assert np.all(errors.sum(axis=1) == weight)

    def test_suffix_table_matches_forward_dp(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(1e-4, 0.4, size=17)
        dist, _ = stratum_probabilities(p, 6)
        for weight in range(1, 7):
            include = _conditional_include_table(p, weight)
            # the include table's underlying suffix entry T[0, w] is the
            # stratum probability; recover it by chaining the first-edge
            # split: P(W=w) = p_0·T[1,w−1] + (1−p_0)·T[1,w].  Instead of
            # reaching into internals, just re-derive via sampling-free
            # identity: include[0, w] = p_0·T[1,w−1]/T[0,w].
            assert np.all((include >= 0.0) & (include <= 1.0))
        assert dist[0] == pytest.approx(np.prod(1 - p), rel=1e-12)

    def test_full_weight_forces_every_edge(self):
        p = np.array([0.2, 0.01, 0.4])
        include = _conditional_include_table(p, 3)
        errors = _sample_fixed_weight(
            sampling_arrays(small_graph()), 3, 8,
            np.random.default_rng(0),
            _conditional_include_table(
                sampling_arrays(small_graph()).probabilities, 3))
        assert np.all(errors.sum(axis=1) == 3)
        # with as many errors left as edges, inclusion is certain
        assert include[0, 3] == 1.0

    def test_kernels_agree_bitwise(self):
        """Exact fixed-weight rows give the same syndromes, logical flips
        and decoder verdicts through the packed kernel as through the
        dense reference, like the direct sampler's Bernoulli rows."""
        graph = small_graph()
        arrays = sampling_arrays(graph)
        detectors = graph.detector_order()
        decoder = MWPMDecoder(graph)
        rng = np.random.default_rng(13)
        direct = sample_errors(arrays, 300, rng)
        fixed = _sample_fixed_weight(
            arrays, 3, 300, rng,
            _conditional_include_table(arrays.probabilities, 3))
        for errors in (direct, fixed):
            syndromes, flips = syndromes_and_flips(arrays, errors)
            words, packed_flips = packed_syndromes_and_flips(arrays, errors)
            assert syndromes.any()
            assert np.array_equal(unpack_rows(words, arrays.num_detectors),
                                  syndromes)
            assert np.array_equal(packed_flips, flips)
            assert np.array_equal(
                batch_decode_packed(decoder, words, detectors),
                batch_decode(decoder, syndromes, detectors))



# ---------------------------------------------------------------------------
# golden bits
# ---------------------------------------------------------------------------

#: ``(estimate, variance, ess)`` as ``float.hex`` plus each stratum's
#: ``(weight, shots, failures)``, recorded with the tilted importance
#: sampler still in the module: two seeded MWPM cells, the second being
#: the d=5, p=1e-4 surface cell of ``benchmarks/test_rare_event.py``.
GOLDEN = {
    "repetition_d3": (
        lambda: repetition_code_graph(3, 3, 0.05), 2048, 11,
        ("0x1.068e039e88274p-4", "0x1.8f5fcf22b4ad6p-18",
         "0x1.3b054c1984222p+13"),
        ((2, 964, 197), (3, 513, 260), (4, 307, 165), (5, 264, 141))),
    "surface_d5_p1e-4": (
        lambda: rotated_surface_code_graph(5, 5, 1e-4), 4096, 20250808,
        ("0x1.85698194f7866p-28", "0x1.525ea11807d8ap-59",
         "0x1.269dfe81dfacdp+31"),
        ((3, 3808, 14), (4, 288, 7))),
}


class TestGoldenBits:
    @pytest.mark.parametrize("cell", sorted(GOLDEN))
    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["batch", "streamed"])
    def test_stratified_bits(self, cell, streamed):
        build, shots, seed, scalars, strata = GOLDEN[cell]
        graph = build()
        if streamed:
            *_, result = stream_rare_event_sampling(
                graph, MWPMDecoder(graph), shots, seed=seed,
                executor=_executor())
        else:
            result = run_rare_event_sampling(
                graph, MWPMDecoder(graph), shots, seed=seed,
                executor=_executor())
        assert (result.estimate.hex(), result.variance.hex(),
                result.ess.hex()) == scalars
        assert tuple((s.weight, s.shots, s.failures)
                     for s in result.strata) == strata


# ---------------------------------------------------------------------------
# statistical agreement with the direct sampler
# ---------------------------------------------------------------------------


class TestAgreement:
    @pytest.fixture(scope="class")
    def direct_reference(self):
        graph = small_graph()
        run = run_memory_sampling(graph, MWPMDecoder(graph), 120_000,
                                  seed=404, executor=_executor())
        return run.failures / run.shots

    def test_stratified_estimate_agrees(self, direct_reference):
        graph = small_graph()
        result = run_rare_event_sampling(graph, MWPMDecoder(graph), 8192,
                                         seed=52, executor=_executor())
        low, high = result.wilson_interval(z=3.3)
        # the skipped tail biases down by at most tail_probability, which
        # wilson_interval already folds into the upper edge
        assert low <= direct_reference <= high, (result.estimate,
                                                 direct_reference)
        # every stratum below the minimum fault weight was skipped
        assert min(s.weight for s in result.strata) == \
            minimum_fault_weight(graph, MWPMDecoder(graph))
        assert sum(s.shots for s in result.strata) == 8192

    def test_strata_below_min_fault_weight_never_fail(self):
        """Empirical justification of the exact-zero skip: decoding every
        below-threshold stratum directly yields zero failures."""
        graph = small_graph()
        result = run_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, min_fault_weight=1, seed=77,
            executor=_executor())
        below = [s for s in result.strata
                 if s.weight < minimum_fault_weight(graph, MWPMDecoder(graph))]
        assert below and all(s.failures == 0 for s in below)


# ---------------------------------------------------------------------------
# fan-out independence (modes, workers)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_bitwise_across_worker_counts(self):
        graph = small_graph()
        results = [
            run_rare_event_sampling(graph, MWPMDecoder(graph), 2048,
                                    seed=71, executor=_executor(),
                                    policy=ExecutionPolicy(parallel=mode,
                                                           max_workers=workers))
            for mode, workers in (("none", None), (None, 2),
                                  ("process", 2), ("process", 4))]
        first = results[0]
        for other in results[1:]:
            assert other.estimate == first.estimate
            assert other.variance == first.variance
            assert other.ess == first.ess
            assert other.raw_failures == first.raw_failures
            assert other.total_defects == first.total_defects
            assert other.strata == first.strata

    def test_streaming_final_matches_batch_stratified(self):
        graph = small_graph()
        batch = run_rare_event_sampling(graph, MWPMDecoder(graph), 2048,
                                        seed=73, executor=_executor())
        *_, final = stream_rare_event_sampling(graph, MWPMDecoder(graph),
                                               2048, seed=73,
                                               executor=_executor())
        assert final.estimate == batch.estimate
        assert final.strata == batch.strata

    def test_streaming_chunking_invariant_stratified(self):
        graph = small_graph()
        finals = []
        for chunk_blocks in (1, 3, 16):
            *_, final = stream_rare_event_sampling(
                graph, MWPMDecoder(graph), 2048, seed=74,
                chunk_blocks=chunk_blocks, executor=_executor())
            finals.append(final)
        assert finals[0].estimate == finals[1].estimate == finals[2].estimate
        assert finals[0].strata == finals[1].strata == finals[2].strata


# ---------------------------------------------------------------------------
# caching + resume
# ---------------------------------------------------------------------------


class TestCaching:
    def test_warm_run_decodes_nothing(self):
        graph = small_graph()
        executor = Executor()
        cold = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                       seed=81, executor=executor)
        before = batch_decode_stats().shots_decoded
        warm = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                       seed=81, executor=executor)
        assert batch_decode_stats().shots_decoded == before
        assert warm.from_cache and not cold.from_cache
        assert warm.estimate == cold.estimate
        assert warm.variance == cold.variance
        assert warm.ess == cold.ess
        assert warm.strata == cold.strata

    def test_unseeded_runs_never_cache(self):
        graph = small_graph()
        a = run_rare_event_sampling(graph, MWPMDecoder(graph), 512,
                                    seed=None, executor=Executor())
        assert not a.from_cache

    def test_method_knobs_key_separately(self):
        graph = small_graph()
        executor = Executor()
        base = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                       seed=83, executor=executor)
        widened = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                          seed=83, max_weight=7,
                                          executor=executor)
        assert not widened.from_cache  # different truncation, different key
        assert widened.strata != base.strata

    def test_killed_stream_resumes_bitwise(self):
        graph = small_graph()
        clean = list(stream_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, seed=84, chunk_blocks=1,
            executor=Executor()))
        # take a few chunks, then "die"; the resume reuses the executor
        executor = Executor()
        interrupted = stream_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, seed=84, chunk_blocks=1,
            executor=executor)
        for _ in range(3):
            next(interrupted)
        interrupted.close()
        before = batch_decode_stats().shots_decoded
        resumed = list(stream_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, seed=84, chunk_blocks=1,
            executor=executor))
        redecoded = batch_decode_stats().shots_decoded - before
        assert redecoded < 2048  # flushed chunks replay from the cache
        assert [(s.shots, s.estimate, s.variance, s.ess, s.strata)
                for s in resumed] == \
               [(s.shots, s.estimate, s.variance, s.ess, s.strata)
                for s in clean]


# ---------------------------------------------------------------------------
# estimator plumbing
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_validation_errors(self):
        graph = small_graph()
        decoder = MWPMDecoder(graph)
        # one estimator: no method to pick, no tilt to set
        with pytest.raises(TypeError, match="method"):
            run_rare_event_sampling(graph, decoder, 64, method="stratified",
                                    executor=_executor())
        with pytest.raises(TypeError, match="tilt"):
            run_rare_event_sampling(graph, decoder, 64, tilt=0.0,
                                    executor=_executor())
        with pytest.raises(ValueError, match="at least one shot"):
            run_rare_event_sampling(graph, decoder, 0, executor=_executor())
        with pytest.raises(ValueError, match="must be >= the minimum"):
            run_rare_event_sampling(graph, decoder, 64, min_fault_weight=3,
                                    max_weight=2, executor=_executor())

    def test_allocation_spends_exact_budget(self):
        spec = _RareEventSpec(
            strata=(2, 3, 4),
            stratum_probability={2: 0.1, 3: 0.01, 4: 0.001}, tail=0.0,
            pilot_shots=8, token=("stratified", 2, 4, 8))
        pilot = {2: (8, 3), 3: (8, 2), 4: (8, 1)}
        for budget in (0, 1, 7, 100, 1001):
            allocation = _allocate_main_shots(spec, pilot, budget)
            assert sum(allocation.values()) == budget
            assert all(v >= 0 for v in allocation.values())

    def test_effective_wilson_interval(self):
        low, high = effective_wilson_interval(0.001, 1e-8)
        assert 0.0 <= low < 0.001 < high <= 1.0
        # more information -> tighter interval
        low2, high2 = effective_wilson_interval(0.001, 1e-10)
        assert (high2 - low2) < (high - low)
        # tail widens only the top
        low3, high3 = effective_wilson_interval(0.001, 1e-8, tail=0.5)
        assert low3 == low and high3 == pytest.approx(high + 0.5)
        # degenerate variance collapses to the point (plus tail)
        assert effective_wilson_interval(0.25, 0.0) == (0.25, 0.25)

    def test_result_shape(self):
        graph = small_graph()
        result = run_rare_event_sampling(graph, MWPMDecoder(graph), 768,
                                         seed=85, executor=_executor())
        assert isinstance(result, RareEventResult)
        assert result.logical_error_rate == result.estimate
        assert result.standard_error == math.sqrt(result.variance)
        assert result.shots == 768
        for stratum in result.strata:
            assert stratum.contribution == pytest.approx(
                stratum.probability * stratum.conditional_failure_rate)

    def test_lookup_decoder_rides_too(self):
        graph = small_graph(0.03)
        result = run_rare_event_sampling(
            graph, LookupDecoder(graph, max_error_weight=2), 1024,
            seed=86, executor=_executor())
        assert result.shots == 1024
        # no minimum-weight promise: every stratum from weight 1 is scored
        assert result.strata[0].weight == 1


# ---------------------------------------------------------------------------
# consumers: memory-experiment drivers
# ---------------------------------------------------------------------------


class TestConsumers:
    def test_surface_memory_rare_event(self):
        out = surface_code_memory_experiment(
            3, 1e-3, shots=1024, seed=5, method="rare-event",
            executor=_executor())
        assert isinstance(out, RareEventMemoryOutcome)
        assert out.logical_error_rate == out.rare.estimate
        assert out.logical_error_rate > 0  # direct would read 0 here
        low, high = out.wilson_interval()
        assert low <= out.logical_error_rate <= high
        assert out.standard_error == out.rare.standard_error

    def test_direct_method_unchanged(self):
        out = surface_code_memory_experiment(3, 1e-3, shots=256, seed=5,
                                             executor=_executor())
        assert not isinstance(out, RareEventMemoryOutcome)
        with pytest.raises(TypeError, match="takes no estimator options"):
            surface_code_memory_experiment(3, 1e-3, shots=256, seed=5,
                                           method="direct",
                                           min_fault_weight=1,
                                           executor=_executor())
        for method in ("bogus", "stratified", "importance"):
            with pytest.raises(ValueError, match="unknown method"):
                surface_code_memory_experiment(3, 1e-3, shots=256, seed=5,
                                               method=method,
                                               executor=_executor())

    def test_curve_with_rare_event_method(self):
        curve = logical_error_rate_curve(
            [3], [1e-3, 3e-3], shots=768, seed=3, method="rare-event",
            executor=_executor())
        assert set(curve) == {(3, 1e-3), (3, 3e-3)}
        assert all(value > 0 for value in curve.values())
        assert curve[(3, 1e-3)] < curve[(3, 3e-3)]


# ---------------------------------------------------------------------------
# consumers: the qec_rare_event service job kind
# ---------------------------------------------------------------------------


class TestServiceJobKind:
    def _run_prepared(self, payload):
        import threading
        from repro.service.jobs import JobContext, prepare_job
        prepared = prepare_job("qec_rare_event", payload)
        events = []
        context = JobContext(
            executor=Executor(),
            emit=lambda kind, data: events.append((kind, data)),
            cancelled=threading.Event())
        return prepared, prepared.run(context), events

    def test_prepare_run_and_partials(self):
        from repro.service import qec_rare_event_payload
        payload = qec_rare_event_payload(
            code="surface", distance=3, rounds=3, error_rate=1e-3,
            shots=1024, seed=21)
        prepared, result, events = self._run_prepared(payload)
        assert prepared.kind == "qec_rare_event"
        assert prepared.key is not None  # seeded + mwpm: coalesceable
        assert result["shots"] == 1024
        assert result["estimate"] > 0
        assert result["logical_error_rate"] == result["estimate"]
        assert result["wilson"][0] <= result["estimate"] <= \
            result["wilson"][1]
        assert result["strata"]  # per-stratum breakdown on the wire
        partials = [data for kind, data in events if kind == "partial"]
        assert partials
        assert all("strata" in partial for partial in partials)
        assert partials[-1]["shots"] == 1024

    def test_key_separates_knobs_and_coalesces_duplicates(self):
        from repro.service import qec_rare_event_payload
        from repro.service.jobs import prepare_job
        base = dict(distance=3, rounds=2, error_rate=0.02, shots=512,
                    seed=9)
        a = prepare_job("qec_rare_event",
                        qec_rare_event_payload(**base)).key
        b = prepare_job("qec_rare_event",
                        qec_rare_event_payload(**base)).key
        c = prepare_job("qec_rare_event",
                        qec_rare_event_payload(max_weight=5, **base)).key
        rechunked = prepare_job(
            "qec_rare_event",
            qec_rare_event_payload(chunk_blocks=1, **base)).key
        unseeded = prepare_job(
            "qec_rare_event",
            qec_rare_event_payload(distance=3, rounds=2, error_rate=0.02,
                                   shots=512)).key
        assert a == b == rechunked
        assert c != a
        assert unseeded is None

    def test_key_hashes_resolved_knobs(self):
        """Naming the resolved default (``min_fault_weight=2``: ⌈3/2⌉ for
        MWPM at d=3) or leaving it unset runs one estimate under one key,
        equal to the inline run."""
        from repro.service import qec_rare_event_payload
        from repro.service.jobs import _decode_qec_graph_and_decoder
        base = dict(code="surface", distance=3, rounds=3, error_rate=5e-3,
                    shots=1024, seed=17)
        named = qec_rare_event_payload(min_fault_weight=2, **base)
        unset = qec_rare_event_payload(**base)
        prepared, result, _ = self._run_prepared(named)
        assert prepared.key is not None
        assert prepared.key == self._run_prepared(unset)[0].key
        graph, decoder = _decode_qec_graph_and_decoder(unset)
        inline = run_rare_event_sampling(graph, decoder, 1024, seed=17,
                                         executor=Executor())
        assert result["estimate"] == inline.estimate
        assert result["variance"] == inline.variance

    def test_malformed_payloads_rejected(self):
        from repro.service import ProtocolError
        from repro.service.jobs import prepare_job
        # the removed estimator knobs are unknown keys now
        for key, value in (("method", "stratified"), ("tilt", 0.0)):
            with pytest.raises(ProtocolError, match=f"'{key}'"):
                prepare_job("qec_rare_event",
                            {"distance": 3, "rounds": 2, "error_rate": 0.02,
                             "shots": 64, key: value})
        with pytest.raises(ProtocolError, match="shots"):
            prepare_job("qec_rare_event",
                        {"distance": 3, "rounds": 2, "error_rate": 0.02,
                         "shots": 0})
        with pytest.raises(ProtocolError, match="unknown code family"):
            prepare_job("qec_rare_event",
                        {"code": "toric", "distance": 3, "rounds": 2,
                         "error_rate": 0.02, "shots": 64})
        # knobs are resolved at submit, so no estimate's knobs are a 400
        with pytest.raises(ProtocolError, match="max_weight"):
            prepare_job("qec_rare_event",
                        {"distance": 3, "rounds": 2, "error_rate": 0.02,
                         "shots": 64, "min_fault_weight": 9,
                         "max_weight": 3})

    def test_rechunked_submissions_coalesce(self, tmp_path):
        """Seeded submissions that differ only in ``chunk_blocks`` are one
        job, and its result is the inline estimate bit for bit."""
        import time
        from repro.service import (ServiceClient, ServiceConfig,
                                   qec_memory_payload,
                                   qec_rare_event_payload, start_in_thread)
        base = dict(distance=3, rounds=2, error_rate=0.02, shots=1024,
                    seed=35)
        graph = repetition_code_graph(3, 2, 0.02)
        inline = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                         seed=35, executor=_executor())
        handle = start_in_thread(ServiceConfig(
            socket_path=str(tmp_path / "svc.sock"),
            db_path=str(tmp_path / "svc.db"), workers=1))
        try:
            with ServiceClient(handle.socket_path) as client:
                # The one worker runs an unseeded blocker, so both
                # submissions below are in flight together.
                blocker = client.submit("qec_memory", qec_memory_payload(
                    distance=3, rounds=2, error_rate=0.02, shots=262144,
                    chunk_blocks=4)).job_id
                deadline = time.monotonic() + 10.0
                while client.status(blocker)["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                first = client.submit("qec_rare_event",
                                      qec_rare_event_payload(
                                          chunk_blocks=1, **base))
                second = client.submit("qec_rare_event",
                                       qec_rare_event_payload(
                                           chunk_blocks=8, **base))
                client.cancel(blocker)
                assert not first.deduped
                assert second.deduped and second.job_id == first.job_id
                result = client.fetch(first.job_id)
        finally:
            handle.stop()
        assert (result["estimate"], result["variance"], result["ess"]) == \
            (inline.estimate, inline.variance, inline.ess)
        assert [(s["weight"], s["shots"], s["failures"])
                for s in result["strata"]] == \
            [(s.weight, s.shots, s.failures) for s in inline.strata]

    def test_end_to_end_over_socket(self, tmp_path):
        from repro.service import (ServiceClient, ServiceConfig,
                                   start_in_thread)
        sock = tmp_path / "svc.sock"
        handle = start_in_thread(ServiceConfig(
            socket_path=str(sock), db_path=str(tmp_path / "svc.db"),
            workers=1))
        try:
            with ServiceClient(str(sock)) as client:
                job_id = client.submit_qec_rare_event(
                    distance=3, rounds=2, error_rate=0.02, shots=512,
                    seed=33)
                result = client.fetch(job_id)
                assert result["shots"] == 512
                assert result["strata"]
        finally:
            handle.stop()
