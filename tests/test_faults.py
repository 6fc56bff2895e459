"""Chaos tests for the fault-tolerance layer (PR 8).

Everything here leans on one property the repo already guarantees: results
are bitwise deterministic under any dispatch mode, so recovery is testable
by *exact equality* instead of statistics.  The suite covers:

* the deterministic fault injector (spec parsing, replayable schedules,
  per-rule limits, site independence, ``REPRO_FAULTS`` env config);
* the shard supervisor — a SIGKILLed pool worker mid-batch, an injected
  wall-clock stall past the shard timeout, transient exceptions, inline
  degradation after the retry budget, and the pool-poisoning regression
  (a later dispatch after a ``BrokenProcessPool`` must just work);
* the executor surfaces — a killed worker during an expectation sweep and
  during QEC sampling recovers bitwise and is visible in ``Executor.stats``;
* streamed QEC chunk checkpoints — a run that dies mid-stream resumes from
  the executor's cache and decodes only the remaining chunks;
* the service layer end-to-end over the unix socket — a restarted server
  requeues queued jobs and retries an orphaned running job with the
  attempt count recorded, a transient job fault is retried with zero
  re-decodes of checkpointed chunks, and a per-job deadline dead-letters.
"""

import contextlib
import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz
from repro.execution import ExecutionPolicy, Executor
from repro.execution.faults import (FAULTS_ENV, FaultInjector, FaultRule,
                                    active_injector, clear_injector,
                                    inject_faults, parse_fault_spec)
from repro.execution.sharding import (ShardPlanner, ShardRetryPolicy,
                                      run_sharded)
from repro.operators import ising_hamiltonian
from repro.qec.decoders import MWPMDecoder
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.sampling import (SHOT_BLOCK, reset_sampling_stats,
                                run_memory_sampling, sampling_stats,
                                stream_memory_sampling)
from repro.service import (RunRegistry, ServiceClient, ServiceConfig,
                           qec_memory_payload, start_in_thread,
                           sweep_payload)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"deterministic failure for {value}")


def _process_plan(workers, items):
    return ShardPlanner("process", max_workers=workers).plan(items)


def _fast_policy(**overrides):
    defaults = dict(max_retries=2, backoff_base=0.0)
    defaults.update(overrides)
    return ShardRetryPolicy(**defaults)


def sweep_fixture(points=4):
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.parameters import Parameter
    from repro.operators.pauli import PauliSum
    theta = Parameter("theta")
    template = QuantumCircuit(2)
    template.h(0)
    template.rz(theta, 0)
    template.cx(0, 1)
    observable = PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.5})
    parameter_sets = [[0.1 * k] for k in range(points)]
    return template, parameter_sets, observable


@contextlib.contextmanager
def service(**overrides):
    """A live in-thread server on a short unix-socket path."""
    tmp = tempfile.mkdtemp(dir="/tmp", prefix="rchaos")
    defaults = dict(socket_path=os.path.join(tmp, "s.sock"),
                    db_path=os.path.join(tmp, "registry.db"), workers=2)
    defaults.update(overrides)
    handle = start_in_thread(ServiceConfig(**defaults))
    try:
        yield handle
    finally:
        handle.stop()
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# the injector itself
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_parse_full_spec(self):
        injector = parse_fault_spec(
            "seed=7,shard.kill=1/1,shard.delay=0.5/2:0.2")
        assert injector.seed == 7
        kill, delay = injector.rules
        assert (kill.site, kill.kind, kill.rate, kill.limit) \
            == ("shard", "kill", 1.0, 1)
        assert (delay.site, delay.kind, delay.rate, delay.limit,
                delay.seconds) == ("shard", "delay", 0.5, 2, 0.2)

    def test_parse_rejects_unknown_site_kind_and_rate(self):
        with pytest.raises(ValueError, match="site"):
            parse_fault_spec("warp.kill=1")
        with pytest.raises(ValueError, match="kind"):
            parse_fault_spec("shard.explode=1")
        with pytest.raises(ValueError, match="rate"):
            parse_fault_spec("shard.kill=1.5")
        with pytest.raises(ValueError, match="malformed"):
            parse_fault_spec("shard.kill")

    def test_schedule_replays_exactly(self):
        injector = parse_fault_spec("seed=3,shard.raise=0.4")
        first = [injector.directive("shard") is not None for _ in range(50)]
        counts = injector.fired_counts()
        assert counts.get("shard.raise", 0) == sum(first)
        assert 0 < sum(first) < 50  # a genuine Bernoulli schedule
        injector.reset()
        replay = [injector.directive("shard") is not None for _ in range(50)]
        assert replay == first
        assert injector.fired_counts() == counts

    def test_limit_caps_firings(self):
        injector = FaultInjector(
            rules=(FaultRule("shard", "raise", rate=1.0, limit=2),), seed=0)
        fired = [injector.directive("shard") for _ in range(5)]
        assert [d is not None for d in fired] \
            == [True, True, False, False, False]
        assert injector.fired_counts() == {"shard.raise": 2}

    def test_sites_do_not_perturb_each_other(self):
        spec = "seed=9,shard.raise=0.5,job.raise=0.5"
        injector = parse_fault_spec(spec)
        alone = [injector.directive("job") is not None for _ in range(20)]
        injector.reset()
        interleaved = []
        for _ in range(20):
            injector.directive("shard")  # foreign-site traffic
            interleaved.append(injector.directive("job") is not None)
        assert interleaved == alone

    def test_seed_changes_the_schedule(self):
        draws = {}
        for seed in (1, 2):
            with inject_faults("shard.raise=0.5", seed=seed) as injector:
                draws[seed] = [injector.directive("shard") is not None
                               for _ in range(40)]
        assert draws[1] != draws[2]

    def test_inject_faults_scopes_installation(self):
        assert active_injector() is None
        with inject_faults("seed=4,shard.raise=1/1") as injector:
            assert active_injector() is injector
            assert injector.directive("shard").kind == "raise"
        assert active_injector() is None

    def test_env_spec_is_parsed_and_cached(self, monkeypatch):
        clear_injector()
        monkeypatch.setenv(FAULTS_ENV, "seed=31,job.raise=1/3")
        first = active_injector()
        assert first is active_injector()  # cached per spec value
        assert first.seed == 31
        assert first.directive("job") is not None
        monkeypatch.delenv(FAULTS_ENV)
        assert active_injector() is None

    def test_retry_policy_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_RETRIES", "5")
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_SHARD_BACKOFF", "0.01")
        policy = ShardRetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.timeout == 1.5
        assert policy.backoff_base == 0.01


# ---------------------------------------------------------------------------
# the shard supervisor
# ---------------------------------------------------------------------------


class TestSupervisedSharding:
    def test_sigkilled_worker_recovers_bitwise(self):
        payloads = [(i,) for i in range(6)]
        plan = _process_plan(2, len(payloads))
        baseline = run_sharded(plan, _square, payloads)
        assert baseline == [i * i for i in range(6)]
        reports = []
        with inject_faults("shard.kill=1/1") as injector:
            chaotic = run_sharded(plan, _square, payloads,
                                  policy=_fast_policy(),
                                  on_fault=reports.append)
        assert chaotic == baseline
        assert injector.fired_counts() == {"shard.kill": 1}
        report = reports[0]
        assert report.respawns >= 1
        assert report.retried
        assert report.inline_shards == 0
        # Pool-poisoning regression: the broken pool was reset, so a later
        # uninjected dispatch lazily rebuilds a healthy one and just works.
        assert run_sharded(plan, _square, payloads) == baseline

    def test_transient_faults_retried_per_shard(self):
        payloads = [(i,) for i in range(6)]
        plan = _process_plan(2, len(payloads))
        reports = []
        with inject_faults("shard.raise=1/2"):
            results = run_sharded(plan, _square, payloads,
                                  policy=_fast_policy(),
                                  on_fault=reports.append)
        assert results == [i * i for i in range(6)]
        report = reports[0]
        assert sum("TransientFault" in cause for cause in report.causes) == 2
        assert report.attempts == 2
        assert report.respawns == 0  # a raise never breaks the pool

    def test_stalled_shard_times_out_and_retries(self):
        payloads = [(i,) for i in range(4)]
        plan = _process_plan(2, len(payloads))
        reports = []
        with inject_faults("shard.delay=1/1:1.5"):
            results = run_sharded(plan, _square, payloads,
                                  policy=_fast_policy(timeout=0.25),
                                  on_fault=reports.append)
        assert results == [i * i for i in range(4)]
        report = reports[0]
        assert report.timeouts >= 1
        assert report.respawns >= 1  # the wedged pool was retired
        assert "timeout" in report.causes

    def test_budget_exhaustion_degrades_to_inline(self):
        payloads = [(i,) for i in range(4)]
        plan = _process_plan(2, len(payloads))
        reports = []
        with inject_faults("shard.raise=1"):  # no limit: every round fails
            results = run_sharded(plan, _square, payloads,
                                  policy=_fast_policy(max_retries=1),
                                  on_fault=reports.append)
        # The inline fallback runs the RAW payloads (no injection) in the
        # parent, so results are still complete and correct.
        assert results == [i * i for i in range(4)]
        report = reports[0]
        assert report.attempts == 2
        assert report.inline_shards == 4
        assert sorted(report.inline_indices) == [0, 1, 2, 3]

    def test_clean_run_stays_callback_free(self):
        reports = []
        results = run_sharded(_process_plan(2, 3), _square,
                              [(1,), (2,), (3,)], policy=_fast_policy(),
                              on_fault=reports.append)
        assert results == [1, 4, 9]
        assert reports == []

    def test_deterministic_errors_propagate_immediately(self):
        plan = _process_plan(2, 4)
        with pytest.raises(ValueError, match="deterministic"):
            run_sharded(plan, _boom, [(i,) for i in range(4)],
                        policy=_fast_policy())

    def test_env_spec_drives_injection(self, monkeypatch):
        clear_injector()
        monkeypatch.setenv(FAULTS_ENV, "seed=12,shard.raise=1/1")
        payloads = [(i,) for i in range(6)]
        plan = _process_plan(2, len(payloads))
        reports = []
        results = run_sharded(plan, _square, payloads,
                              policy=_fast_policy(),
                              on_fault=reports.append)
        assert results == [i * i for i in range(6)]
        assert reports and any("TransientFault" in cause
                               for cause in reports[0].causes)


# ---------------------------------------------------------------------------
# executor surfaces: sweep + QEC sampling under SIGKILL
# ---------------------------------------------------------------------------


class TestExecutorChaos:
    def test_sweep_sigkill_recovers_bitwise_and_is_counted(self):
        template = FullyConnectedAnsatz(4, depth=1).build()
        rng = np.random.default_rng(5)
        points = rng.standard_normal(
            (24, len(template.ordered_parameters()))).tolist()
        hamiltonian = ising_hamiltonian(4, 1.0)
        clean = Executor(use_cache=False).evaluate_sweep(
            template, points, hamiltonian, backend="statevector",
            policy=ExecutionPolicy(parallel="process", max_workers=2))
        executor = Executor(use_cache=False)
        with inject_faults("shard.kill=1/1"):
            chaotic = executor.evaluate_sweep(
                template, points, hamiltonian, backend="statevector",
                policy=ExecutionPolicy(parallel="process", max_workers=2))
        assert np.array_equal(chaotic, clean)
        assert executor.stats.pool_respawns >= 1
        assert executor.stats.shard_retries >= 1
        assert executor.fault_reports
        assert executor.fault_reports[-1].respawns >= 1

    def test_qec_sampling_sigkill_recovers_bitwise(self):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        shots = 2 * SHOT_BLOCK + 17
        clean = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                    seed=321,
                                    executor=Executor(use_cache=False),
                                    policy=ExecutionPolicy(parallel="process",
                                                           max_workers=2))
        executor = Executor(use_cache=False)
        with inject_faults("shard.kill=1/1"):
            chaotic = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                          seed=321, executor=executor,
                                          policy=ExecutionPolicy(
                                              parallel="process",
                                              max_workers=2))
        assert (chaotic.failures, chaotic.total_defects) \
            == (clean.failures, clean.total_defects)
        assert chaotic.fault_report is not None
        assert chaotic.fault_report.respawns >= 1
        assert executor.stats.pool_respawns >= 1

    def test_qec_sampling_degraded_shards_count_decodes_once(self):
        """Shards the supervisor degrades to inline decode in this process,
        so their counter deltas must not be folded back a second time."""
        graph = rotated_surface_code_graph(3, 2, 0.01)
        shots = 2 * SHOT_BLOCK + 17
        clean = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                    seed=321,
                                    executor=Executor(use_cache=False),
                                    policy=ExecutionPolicy(parallel="none"))
        executor = Executor(use_cache=False)
        policy = ExecutionPolicy(parallel="process", max_workers=2,
                                 retry=_fast_policy(max_retries=0))
        reset_sampling_stats()
        with inject_faults("shard.raise=1"):  # every pooled attempt fails
            degraded = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                           seed=321, executor=executor,
                                           policy=policy)
        assert (degraded.failures, degraded.total_defects) \
            == (clean.failures, clean.total_defects)
        assert sorted(degraded.fault_report.inline_indices) == [0, 1]
        assert sampling_stats().shots_decoded == shots

    def test_stream_checkpoints_resume_with_partial_decodes(self):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        shots = 6 * SHOT_BLOCK + 13
        reference = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                        seed=101,
                                        executor=Executor(use_cache=False))
        # First attempt dies after two chunks — both already flushed to the
        # executor's cache as chunk checkpoints.
        executor = Executor()
        stream = stream_memory_sampling(graph, MWPMDecoder(graph), shots,
                                        seed=101, executor=executor,
                                        chunk_blocks=2)
        next(stream)
        next(stream)
        stream.close()
        # The resumed attempt on the same executor folds the checkpointed
        # chunks from its cache and decodes only the remainder.
        reset_sampling_stats()
        resumed = list(stream_memory_sampling(
            graph, MWPMDecoder(graph), shots, seed=101,
            executor=executor, chunk_blocks=2))
        final = resumed[-1]
        assert final.shots == shots
        assert (final.failures, final.total_defects) \
            == (reference.failures, reference.total_defects)
        checkpointed = 2 * 2 * SHOT_BLOCK  # two chunks of two blocks
        assert sampling_stats().shots_decoded == shots - checkpointed


# ---------------------------------------------------------------------------
# service layer end-to-end over the unix socket
# ---------------------------------------------------------------------------


class TestServiceChaos:
    def test_restart_requeues_and_retries_through_socket(self):
        """The PR acceptance path: a server restart over an existing
        registry requeues queued jobs (no attempt spent) and retries at once
        a running job its dead server left (crashed attempt still counted),
        and both
        complete with correct results — all observed through the client."""
        template, points, observable = sweep_fixture(points=4)
        payload = sweep_payload(template, points, observable)
        reference = Executor(use_cache=False).evaluate_sweep(
            template, points, observable)
        tmp = tempfile.mkdtemp(dir="/tmp", prefix="rchaos")
        try:
            db_path = os.path.join(tmp, "registry.db")
            seeded = RunRegistry(db_path)
            # Queued when the old server died: it never ran.
            seeded.create_job("q1", "sweep", None, payload,
                              max_attempts=1)
            # Mid-run when the old server died.
            seeded.create_job("r1", "sweep", None, payload,
                              max_attempts=3)
            assert seeded.claim("r1") == 1
            seeded.close()
            handle = start_in_thread(ServiceConfig(
                socket_path=os.path.join(tmp, "s.sock"), db_path=db_path,
                workers=2))
            try:
                with ServiceClient(handle.socket_path) as client:
                    for job_id in ("q1", "r1"):
                        result = client.result(job_id, wait=True)
                        assert result.state == "done"
                        assert np.array_equal(result.result["energies"],
                                              reference)
                    assert client.status("q1")["attempts"] == 1
                    assert client.status("r1")["attempts"] == 2
            finally:
                handle.stop()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_transient_job_fault_retried_with_zero_redecodes(self):
        """A transient fault at a job checkpoint consumes one attempt; the
        retry resumes from the chunk checkpoints and decodes each shot
        exactly once across both attempts."""
        shots = 3 * SHOT_BLOCK
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=shots, seed=17, chunk_blocks=1)
        graph = repetition_code_graph(3, 2, 0.02)
        reference = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                        seed=17,
                                        executor=Executor(use_cache=False))
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                reset_sampling_stats()
                with inject_faults("job.raise=1/1"):
                    submitted = client.submit("qec_memory", payload,
                                              max_attempts=3)
                    result = client.result(submitted.job_id, wait=True)
                assert result.state == "done"
                assert result.result["failures"] == reference.failures
                entry = client.status(submitted.job_id)
                assert entry["attempts"] == 2
                retries = [event for event
                           in client.iter_events(submitted.job_id)
                           if event["data"].get("retry")]
                assert retries
                assert retries[0]["data"]["cause"] == "TransientFault"
                # Chunks checkpointed by attempt #1 were not re-decoded by
                # attempt #2: total decode work equals one clean run.
                assert sampling_stats().shots_decoded == shots
                assert "faults" in client.stats()

    def test_deadline_dead_letters_when_budget_exhausted(self):
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=262144, chunk_blocks=4)
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                # A 10 ms stall at each of the job's 256 chunk checkpoints
                # makes it outlast the 0.3 s deadline however fast the
                # machine samples.
                with inject_faults("job.delay=1:0.01"):
                    submitted = client.submit("qec_memory", payload,
                                              deadline=0.3)
                    result = client.result(submitted.job_id, wait=True)
                assert result.state == "failed"
                assert "deadline" in (result.error or "")
                assert client.status(submitted.job_id)["attempts"] == 1
