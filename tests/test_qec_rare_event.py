"""Rare-event estimation (PR 10): tilted importance sampling + stratified
subset sampling over the edge-Bernoulli error model.

The load-bearing contracts:

* **The determinism anchor** — importance sampling with the identity tilt
  (``q == p``) consumes the same Bernoulli stream as the direct sampler and
  carries weights that are *exactly* 1.0, so its raw failure counts,
  defect totals and estimate reproduce :func:`run_memory_sampling`
  bitwise.
* **Fan-out independence** — both estimators return bitwise-identical
  results for any worker count, inline vs threaded vs pooled.
* **Exactness of the stratum math** — stratum probabilities match the
  binomial/Poisson-binomial exactly, conditional samples carry exactly
  their stratum's weight, and strata below the minimum fault weight are
  never decoded.
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
from repro.qec.decoders import LookupDecoder, MWPMDecoder
from repro.qec.bitops import unpack_rows
from repro.qec.decoders.base import (batch_decode, batch_decode_packed,
                                     batch_decode_stats)
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.rare_event import (_allocate_main_shots,
                                  _conditional_include_table,
                                  _RareEventSpec, _sample_fixed_weight,
                                  effective_wilson_interval,
                                  minimum_fault_weight,
                                  stratum_probabilities,
                                  tilt_for_mean_weight,
                                  tilted_probabilities)
from repro.qec.sampling import (packed_syndromes_and_flips,
                                run_memory_sampling, sampling_arrays)

from reference.qec import syndromes_and_flips


def _executor():
    return Executor(use_cache=False)


def small_graph(p=0.08):
    return repetition_code_graph(3, 2, p)


# ---------------------------------------------------------------------------
# tilting / stratum math
# ---------------------------------------------------------------------------


class TestTiltMath:
    def test_identity_tilt_is_bitwise_p(self):
        p = np.array([0.01, 0.3, 1e-6, 0.499])
        q = tilted_probabilities(p, 0.0)
        assert np.array_equal(q, p)
        assert q is not p  # a copy: callers may mutate

    def test_tilt_monotone_and_bounded(self):
        p = np.full(50, 1e-4)
        up = tilted_probabilities(p, 3.0)
        down = tilted_probabilities(p, -3.0)
        assert np.all(up > p) and np.all(down < p)
        assert np.all((up > 0) & (up < 1))
        # extreme tilts saturate without overflow
        assert np.all(np.isfinite(tilted_probabilities(p, 500.0)))
        assert np.all(np.isfinite(tilted_probabilities(p, -500.0)))

    def test_tilt_for_mean_weight_hits_target(self):
        p = np.full(200, 1e-4)
        theta = tilt_for_mean_weight(p, 3.0)
        assert float(tilted_probabilities(p, theta).sum()) == \
            pytest.approx(3.0, abs=1e-9)
        with pytest.raises(ValueError):
            tilt_for_mean_weight(p, 0.0)
        with pytest.raises(ValueError):
            tilt_for_mean_weight(p, 200.0)

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
        assert minimum_fault_weight(small_graph()) == 2          # d=3
        assert minimum_fault_weight(
            repetition_code_graph(5, 2, 0.01)) == 3              # d=5
        assert minimum_fault_weight(
            rotated_surface_code_graph(7, 2, 0.01)) == 4         # d=7


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


# ---------------------------------------------------------------------------
# the determinism anchor (q == p reproduces the direct sampler bitwise)
# ---------------------------------------------------------------------------


class TestIdentityTiltAnchor:
    def test_bitwise_match_with_direct_sampler(self):
        graph = small_graph()
        direct = run_memory_sampling(graph, MWPMDecoder(graph), 1024,
                                     seed=31, executor=_executor())
        anchored = run_rare_event_sampling(
            graph, MWPMDecoder(graph), 1024, method="importance", tilt=0.0,
            seed=31, executor=_executor())
        assert anchored.raw_failures == direct.failures
        assert anchored.total_defects == direct.total_defects
        # weights are exactly 1.0: the estimate is exactly failures/shots
        # and the effective sample size is exactly the shot count
        assert anchored.estimate == direct.failures / 1024
        assert anchored.ess == 1024.0

    def test_kernels_agree_bitwise(self):
        """Tilted Bernoulli rows and exact fixed-weight rows — the two
        rare-event error matrices — give the same syndromes, logical flips
        and decoder verdicts through the packed kernel as through the
        dense reference."""
        graph = small_graph()
        arrays = sampling_arrays(graph)
        detectors = graph.detector_order()
        decoder = MWPMDecoder(graph)
        rng = np.random.default_rng(13)
        q = tilted_probabilities(arrays.probabilities, 1.5)
        tilted = (rng.random((300, arrays.num_edges)) < q).view(np.uint8)
        fixed = _sample_fixed_weight(
            arrays, 3, 300, rng,
            _conditional_include_table(arrays.probabilities, 3))
        for errors in (tilted, fixed):
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
# statistical agreement with the direct sampler
# ---------------------------------------------------------------------------


class TestAgreement:
    @pytest.fixture(scope="class")
    def direct_reference(self):
        graph = small_graph()
        run = run_memory_sampling(graph, MWPMDecoder(graph), 120_000,
                                  seed=404, executor=_executor())
        return run.failures / run.shots

    def test_importance_estimate_agrees(self, direct_reference):
        graph = small_graph()
        result = run_rare_event_sampling(graph, MWPMDecoder(graph), 8192,
                                         method="importance", seed=51,
                                         executor=_executor())
        low, high = result.wilson_interval(z=3.3)
        assert low <= direct_reference <= high, (result.estimate,
                                                 direct_reference)
        assert 0 < result.ess <= result.shots

    def test_stratified_estimate_agrees(self, direct_reference):
        graph = small_graph()
        result = run_rare_event_sampling(graph, MWPMDecoder(graph), 8192,
                                         method="stratified", seed=52,
                                         executor=_executor())
        low, high = result.wilson_interval(z=3.3)
        # the skipped tail biases down by at most tail_probability, which
        # wilson_interval already folds into the upper edge
        assert low <= direct_reference <= high, (result.estimate,
                                                 direct_reference)
        # every stratum below the minimum fault weight was skipped
        assert min(s.weight for s in result.strata) == \
            minimum_fault_weight(graph)
        assert sum(s.shots for s in result.strata) == 8192

    def test_strata_below_min_fault_weight_never_fail(self):
        """Empirical justification of the exact-zero skip: decoding every
        below-threshold stratum directly yields zero failures."""
        graph = small_graph()
        result = run_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, method="stratified",
            min_fault_weight=1, seed=77, executor=_executor())
        below = [s for s in result.strata
                 if s.weight < minimum_fault_weight(graph)]
        assert below and all(s.failures == 0 for s in below)


# ---------------------------------------------------------------------------
# fan-out independence (modes, workers)
# ---------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("method", ["importance", "stratified"])
    def test_bitwise_across_worker_counts(self, method):
        graph = small_graph()
        results = [
            run_rare_event_sampling(graph, MWPMDecoder(graph), 2048,
                                    method=method, seed=71,
                                    executor=_executor(),
                                    policy=ExecutionPolicy(parallel=mode,
                                                           max_workers=workers))
            for mode, workers in (("none", None), ("thread", 2),
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
                                        method="stratified", seed=73,
                                        executor=_executor())
        *_, final = stream_rare_event_sampling(graph, MWPMDecoder(graph),
                                               2048, method="stratified",
                                               seed=73,
                                               executor=_executor())
        assert final.estimate == batch.estimate
        assert final.strata == batch.strata

    def test_streaming_chunking_invariant_stratified(self):
        graph = small_graph()
        finals = []
        for chunk_blocks in (1, 3, 16):
            *_, final = stream_rare_event_sampling(
                graph, MWPMDecoder(graph), 2048, method="stratified",
                seed=74, chunk_blocks=chunk_blocks, executor=_executor())
            finals.append(final)
        assert finals[0].estimate == finals[1].estimate == finals[2].estimate
        assert finals[0].strata == finals[1].strata == finals[2].strata


# ---------------------------------------------------------------------------
# caching + resume
# ---------------------------------------------------------------------------


class TestCaching:
    @pytest.mark.parametrize("method", ["importance", "stratified"])
    def test_warm_run_decodes_nothing(self, method):
        graph = small_graph()
        executor = Executor()
        cold = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                       method=method, seed=81,
                                       executor=executor)
        before = batch_decode_stats().shots_decoded
        warm = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                       method=method, seed=81,
                                       executor=executor)
        assert batch_decode_stats().shots_decoded == before
        assert warm.from_cache and not cold.from_cache
        assert warm.estimate == cold.estimate
        assert warm.variance == cold.variance
        assert warm.ess == cold.ess
        assert warm.strata == cold.strata

    def test_unseeded_runs_never_cache(self):
        graph = small_graph()
        a = run_rare_event_sampling(graph, MWPMDecoder(graph), 512,
                                    method="stratified", seed=None,
                                    executor=Executor())
        assert not a.from_cache

    def test_method_knobs_key_separately(self):
        graph = small_graph()
        executor = Executor()
        base = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                       method="stratified", seed=83,
                                       executor=executor)
        widened = run_rare_event_sampling(graph, MWPMDecoder(graph), 1024,
                                          method="stratified", seed=83,
                                          max_weight=7, executor=executor)
        assert not widened.from_cache  # different truncation, different key
        assert widened.strata != base.strata

    @pytest.mark.parametrize("method", ["importance", "stratified"])
    def test_killed_stream_resumes_bitwise(self, method):
        graph = small_graph()
        clean = list(stream_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, method=method, seed=84,
            chunk_blocks=1, executor=Executor()))
        # take a few chunks, then "die"; the resume reuses the executor
        executor = Executor()
        interrupted = stream_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, method=method, seed=84,
            chunk_blocks=1, executor=executor)
        for _ in range(3):
            next(interrupted)
        interrupted.close()
        before = batch_decode_stats().shots_decoded
        resumed = list(stream_rare_event_sampling(
            graph, MWPMDecoder(graph), 2048, method=method, seed=84,
            chunk_blocks=1, executor=executor))
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
        with pytest.raises(ValueError, match="unknown rare-event method"):
            run_rare_event_sampling(graph, decoder, 64, method="nope",
                                    executor=_executor())
        with pytest.raises(ValueError, match="at least one shot"):
            run_rare_event_sampling(graph, decoder, 0, executor=_executor())
        with pytest.raises(ValueError, match="one rate per edge"):
            run_rare_event_sampling(graph, decoder, 64, method="importance",
                                    tilt=np.array([0.1, 0.2]),
                                    executor=_executor())
        with pytest.raises(ValueError, match="strictly in"):
            arrays = sampling_arrays(graph)
            bad = np.zeros(arrays.num_edges)
            run_rare_event_sampling(graph, decoder, 64, method="importance",
                                    tilt=bad, executor=_executor())
        with pytest.raises(ValueError, match="must be >= the minimum"):
            run_rare_event_sampling(graph, decoder, 64, method="stratified",
                                    min_fault_weight=3, max_weight=2,
                                    executor=_executor())

    def test_allocation_spends_exact_budget(self):
        spec = _RareEventSpec(
            method="stratified", q=None, strata=(2, 3, 4),
            stratum_probability={2: 0.1, 3: 0.01, 4: 0.001}, tail=0.0,
            pilot_shots=8, method_token=("stratified", 2, 4, 8))
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
                                         method="stratified", seed=85,
                                         executor=_executor())
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
            method="stratified", seed=86, executor=_executor())
        assert result.shots == 1024


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
                                           method="direct", tilt=1.0,
                                           executor=_executor())
        with pytest.raises(ValueError, match="unknown method"):
            surface_code_memory_experiment(3, 1e-3, shots=256, seed=5,
                                           method="bogus",
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
        assert result["method"] == "stratified"
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

    def test_importance_job(self):
        from repro.service import qec_rare_event_payload
        payload = qec_rare_event_payload(
            distance=3, rounds=2, error_rate=0.02, shots=1024, seed=22,
            method="importance")
        _, result, _ = self._run_prepared(payload)
        assert result["method"] == "importance"
        assert result["strata"] == []
        assert result["ess"] > 0

    def test_key_separates_methods_and_coalesces_duplicates(self):
        from repro.service import qec_rare_event_payload
        from repro.service.jobs import prepare_job
        base = dict(distance=3, rounds=2, error_rate=0.02, shots=512,
                    seed=9)
        a = prepare_job("qec_rare_event",
                        qec_rare_event_payload(**base)).key
        b = prepare_job("qec_rare_event",
                        qec_rare_event_payload(**base)).key
        c = prepare_job("qec_rare_event",
                        qec_rare_event_payload(method="importance",
                                               **base)).key
        unseeded = prepare_job(
            "qec_rare_event",
            qec_rare_event_payload(distance=3, rounds=2, error_rate=0.02,
                                   shots=512)).key
        assert a == b
        assert c != a
        assert unseeded is None

    def test_malformed_payloads_rejected(self):
        from repro.service import ProtocolError
        from repro.service.jobs import prepare_job
        with pytest.raises(ProtocolError, match="unknown rare-event"):
            prepare_job("qec_rare_event",
                        {"distance": 3, "rounds": 2, "error_rate": 0.02,
                         "shots": 64, "method": "bogus"})
        with pytest.raises(ProtocolError, match="shots"):
            prepare_job("qec_rare_event",
                        {"distance": 3, "rounds": 2, "error_rate": 0.02,
                         "shots": 0})
        with pytest.raises(ProtocolError, match="unknown code family"):
            prepare_job("qec_rare_event",
                        {"code": "toric", "distance": 3, "rounds": 2,
                         "error_rate": 0.02, "shots": 64})

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
                assert result["method"] == "stratified"
                assert result["shots"] == 512
                assert result["strata"]
        finally:
            handle.stop()
