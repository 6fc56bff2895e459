"""Process-sharded execution: planner policy, determinism, picklability.

The PR-4 determinism satellite: every execution surface must produce the
same results for ``max_workers`` in {1, 2, 4} and for the thread, process
and inline paths (within 1e-12), plus
unit coverage of the :class:`~repro.execution.sharding.ShardPlanner`
capability-hint policy, the ``REPRO_WORKERS`` override, and backend/task
picklability (the process-pool transport contract).
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro

from repro.ansatz import FullyConnectedAnsatz
from repro.circuits.circuit import QuantumCircuit
from repro.execution import (Backend, BackendCapabilities, ExecutionPolicy,
                             ExecutionTask, Executor, PauliPropagationBackend,
                             ShardPlanner, StatevectorBackend, execute,
                             get_backend)
from repro.execution.sharding import (resolve_workers, split_evenly,
                                      _PROCESS_TASK_THRESHOLD)
from repro.operators import ising_hamiltonian
from repro.simulators.noise import NoiseModel, depolarizing_channel
from repro.simulators.program import program_cache_counters


def cx_noise():
    return NoiseModel().add_gate_error(depolarizing_channel(0.05, 2),
                                       ["cx", "cnot"]).add_readout_error(0.02)


def clifford_circuit(num_qubits, flips=()):
    qc = QuantumCircuit(num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    for q in flips:
        qc.x(q)
    return qc


class TestShardPlanner:
    def test_process_backends_run_inline_below_threshold(self):
        # The thread-overhead fix: small dense batches spin up NO pool.
        plan = ShardPlanner().plan(_PROCESS_TASK_THRESHOLD - 1,
                                   hints=("process",))
        assert plan.mode == "none"

    def test_process_backends_shard_at_threshold(self):
        plan = ShardPlanner(max_workers=4).plan(_PROCESS_TASK_THRESHOLD,
                                                hints=("process",))
        assert plan.mode == "process"
        assert plan.workers == 4

    def test_thread_hint_keeps_thread_pool(self):
        plan = ShardPlanner(max_workers=4).plan(8, hints=("thread",))
        assert plan.mode == "thread"

    def test_mixed_hints_fall_back_to_threads(self):
        plan = ShardPlanner(max_workers=4).plan(64,
                                                hints=("process", "thread"))
        assert plan.mode == "thread"

    def test_inline_hint_forces_inline(self):
        plan = ShardPlanner(max_workers=4).plan(64, hints=("inline",))
        assert plan.mode == "none"

    def test_pauli_propagation_runs_inline_under_auto(self):
        # Pickling a noisy Clifford circuit costs about as much as
        # propagating it, so "auto" never forks Pauli-propagation slots,
        # however many; an explicit process policy still shards them.
        circuits = [clifford_circuit(5, flips=(i % 5, (i // 5) % 5))
                    for i in range(_PROCESS_TASK_THRESHOLD + 4)]
        observable = ising_hamiltonian(5, 1.0)
        hint = PauliPropagationBackend().capabilities().parallel_hint
        assert ShardPlanner(max_workers=2).plan(
            len(circuits), hints=(hint,)).mode == "none"
        auto = Executor(use_cache=False)
        values = auto.evaluate_observable(
            circuits, observable, noise_model=cx_noise(),
            backend="pauli_propagation",
            policy=ExecutionPolicy(parallel="auto", max_workers=2))
        assert auto.stats.process_shards == 0
        pooled = Executor(use_cache=False)
        sharded = pooled.evaluate_observable(
            circuits, observable, noise_model=cx_noise(),
            backend="pauli_propagation",
            policy=ExecutionPolicy(parallel="process", max_workers=2))
        assert pooled.stats.process_shards > 0
        assert np.array_equal(sharded, values)

    def test_explicit_modes_override_hints(self):
        assert ShardPlanner("process", max_workers=4).plan(
            4, hints=("process",)).mode == "process"
        assert ShardPlanner("thread", max_workers=4).plan(
            64, hints=("process",)).mode == "thread"
        assert ShardPlanner("none", max_workers=4).plan(
            64, hints=("process",)).mode == "none"

    def test_single_item_never_parallel(self):
        plan = ShardPlanner("process", max_workers=4).plan(
            1, hints=("process",))
        assert plan.mode == "none"

    def test_one_worker_never_parallel(self):
        plan = ShardPlanner("process", max_workers=1).plan(
            64, hints=("process",))
        assert plan.mode == "none"

    def test_invalid_mode_rejected(self):
        from repro.execution import ExecutionError
        with pytest.raises(ExecutionError):
            ShardPlanner(parallel="fork-bomb")

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(5) == 5  # explicit argument wins
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) >= 1

    def test_split_evenly(self):
        assert split_evenly(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert split_evenly([1], 4) == [[1]]
        assert sum(split_evenly(list(range(100)), 8), []) == list(range(100))


class TestPicklability:
    def test_backends_pickle(self):
        for name in ("statevector", "density_matrix", "pauli_propagation"):
            backend = get_backend(name)
            clone = pickle.loads(pickle.dumps(backend))
            assert clone.name == backend.name

    def test_seeded_backend_pickle_keeps_seed(self):
        clone = pickle.loads(pickle.dumps(StatevectorBackend(seed=13)))
        assert clone._seed == 13

    def test_parametric_template_task_roundtrip(self):
        template = FullyConnectedAnsatz(3, depth=1).build()
        clone = pickle.loads(pickle.dumps(template))
        theta = [0.1] * len(template.ordered_parameters())
        assert clone.bind_parameters(theta).fingerprint() \
            == template.bind_parameters(theta).fingerprint()

    def test_noisy_task_roundtrip(self):
        task = ExecutionTask(clifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0),
                             noise_model=cx_noise())
        clone = pickle.loads(pickle.dumps(task))
        assert clone.cache_key("pauli_propagation") \
            == task.cache_key("pauli_propagation")


class TestDeterminismAcrossWorkersAndModes:
    """Same results for max_workers in {1, 2, 4} and all dispatch paths."""

    def setup_method(self):
        self.hamiltonian = ising_hamiltonian(5, 1.0)
        self.noise = cx_noise()
        self.circuit = clifford_circuit(5)

    def test_execute_batch_matches_across_modes(self):
        tasks = [ExecutionTask(clifford_circuit(5, flips=(i % 5,)),
                               observable=self.hamiltonian)
                 for i in range(20)]
        reference = [r.value for r in
                     Executor(use_cache=False).run(
                         tasks, backend="statevector",
                         policy=ExecutionPolicy(parallel="none"))]
        for parallel, workers in (("thread", 4), ("process", 2),
                                  ("process", 4)):
            values = [r.value for r in
                      Executor(use_cache=False).run(
                          tasks, backend="statevector",
                          policy=ExecutionPolicy(parallel=parallel,
                                                 max_workers=workers))]
            assert np.allclose(values, reference, atol=1e-12)

    def test_grouped_observable_matches_across_modes(self):
        circuits = [clifford_circuit(5, flips=(i % 5,)) for i in range(20)]
        reference = Executor(use_cache=False).evaluate_observable(
            circuits, self.hamiltonian, backend="statevector",
            policy=ExecutionPolicy(parallel="none"))
        for parallel, workers in (("thread", 4), ("process", 2),
                                  ("process", 4)):
            values = Executor(use_cache=False).evaluate_observable(
                circuits, self.hamiltonian, backend="statevector",
                policy=ExecutionPolicy(parallel=parallel, max_workers=workers))
            assert np.allclose(values, reference, atol=1e-12)

    def test_sweep_matches_across_modes(self):
        template = FullyConnectedAnsatz(5, depth=1).build()
        rng = np.random.default_rng(7)
        points = rng.standard_normal(
            (24, len(template.ordered_parameters()))).tolist()
        reference = Executor(use_cache=False).evaluate_sweep(
            template, points, self.hamiltonian, backend="statevector",
            policy=ExecutionPolicy(parallel="none"))
        for workers in (2, 4):
            values = Executor(use_cache=False).evaluate_sweep(
                template, points, self.hamiltonian, backend="statevector",
                policy=ExecutionPolicy(parallel="process",
                                       max_workers=workers))
            assert np.allclose(values, reference, atol=1e-12)

    def test_thread_sweep_runs_the_inline_batch(self):
        # Only process sweeps cut point blocks: a thread sweep is the one
        # inline batch, bitwise, and hands nothing to the pool.
        template = FullyConnectedAnsatz(8, depth=1).build()
        rng = np.random.default_rng(11)
        points = rng.uniform(-3.0, 3.0,
                             (16, len(template.ordered_parameters())))
        hamiltonian = ising_hamiltonian(8)
        inline = Executor(use_cache=False).evaluate_sweep(
            template, points, hamiltonian, backend="statevector",
            policy=ExecutionPolicy(parallel="none"))
        executor = Executor(use_cache=False)
        threaded = executor.evaluate_sweep(
            template, points, hamiltonian, backend="statevector",
            policy=ExecutionPolicy(parallel="thread", max_workers=2))
        assert np.array_equal(threaded, inline)
        assert executor.stats.process_shards == 0

    def test_noisy_pauli_propagation_matches_across_modes(self):
        circuits = [clifford_circuit(5, flips=(i % 5,)) for i in range(20)]
        reference = Executor(use_cache=False).evaluate_observable(
            circuits, self.hamiltonian, noise_model=self.noise,
            backend="pauli_propagation",
            policy=ExecutionPolicy(parallel="none"))
        values = Executor(use_cache=False).evaluate_observable(
            circuits, self.hamiltonian, noise_model=self.noise,
            backend="pauli_propagation",
            policy=ExecutionPolicy(parallel="process", max_workers=4))
        assert np.allclose(values, reference, atol=1e-12)


class TestProcessDispatchBehaviour:
    def test_process_shards_are_counted(self):
        executor = Executor(use_cache=False)
        circuits = [clifford_circuit(4, flips=(i % 4,)) for i in range(8)]
        executor.evaluate_observable(circuits, ising_hamiltonian(4, 1.0),
                                     backend="statevector",
                                     policy=ExecutionPolicy(parallel="process",
                                                            max_workers=2))
        assert executor.stats.process_shards >= 2
        assert executor.stats.simulator_invocations == 4  # unique circuits

    def test_worker_program_cache_counters_reach_stats(self):
        # Every point block compiles the template or hits its worker's
        # program cache; those counters come home with the shard.
        template = FullyConnectedAnsatz(5, depth=1).build()
        rng = np.random.default_rng(5)
        points = rng.uniform(-3.0, 3.0,
                             (32, len(template.ordered_parameters())))
        executor = Executor(use_cache=False)
        executor.evaluate_sweep(template, points, ising_hamiltonian(5),
                                backend="statevector",
                                policy=ExecutionPolicy(parallel="process",
                                                       max_workers=2))
        stats = executor.stats
        assert stats.process_shards > 0
        assert (stats.programs_compiled + stats.program_cache_hits
                >= stats.process_shards)

    def test_program_cache_counters_include_worker_movement(self):
        # Worker compiles and hits land in this process's counters when a
        # shard folds home, so the process-wide pair moves exactly as far
        # as the executor's stats do.
        template = FullyConnectedAnsatz(5, depth=1).build()
        rng = np.random.default_rng(5)
        points = rng.uniform(-3.0, 3.0,
                             (32, len(template.ordered_parameters())))
        executor = Executor(use_cache=False)
        compiled, hits = program_cache_counters()
        executor.evaluate_sweep(template, points, ising_hamiltonian(5),
                                backend="statevector",
                                policy=ExecutionPolicy(parallel="process",
                                                       max_workers=2))
        stats = executor.stats
        assert stats.process_shards > 0
        assert stats.programs_compiled + stats.program_cache_hits > 0
        assert program_cache_counters() == (
            compiled + stats.programs_compiled,
            hits + stats.program_cache_hits)

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process states from /proc")
    def test_pool_workers_exit_when_their_parent_is_killed(self, tmp_path):
        script = textwrap.dedent("""
            import multiprocessing, os, signal, sys
            import numpy as np
            from repro.ansatz import FullyConnectedAnsatz
            from repro.execution import ExecutionPolicy, Executor
            from repro.operators import ising_hamiltonian
            template = FullyConnectedAnsatz(5, depth=1).build()
            points = np.random.default_rng(5).uniform(
                -3.0, 3.0, (32, len(template.ordered_parameters())))
            executor = Executor(use_cache=False)
            executor.evaluate_sweep(
                template, points, ising_hamiltonian(5),
                backend="statevector",
                policy=ExecutionPolicy(parallel="process", max_workers=2))
            assert executor.stats.process_shards > 0
            with open(sys.argv[1], "w") as report:
                print(*(child.pid
                        for child in multiprocessing.active_children()),
                      file=report)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])))
        report = tmp_path / "workers"
        # No pipes: a surviving worker would hold them open.
        killed = subprocess.run([sys.executable, "-c", script, str(report)],
                                env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=120)
        assert killed.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in report.read_text().split()]
        assert workers

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    # A zombie has exited; only its reaping is pending.
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors

    def test_auto_mode_runs_small_dense_batches_inline(self):
        executor = Executor(use_cache=False)
        tasks = [ExecutionTask(clifford_circuit(3, flips=(i % 3,)),
                               observable=ising_hamiltonian(3, 1.0))
                 for i in range(4)]
        executor.run(tasks, backend="statevector")
        assert executor.stats.process_shards == 0

    @pytest.mark.parametrize("parallel", ["process", "thread"])
    def test_process_dispatch_counts_backend_invocations(self, parallel):
        # Workers bump pickled backend copies; the parent must restore the
        # caller-side counter so monitoring code sees the same numbers as
        # under inline/thread dispatch.
        backend = StatevectorBackend()
        tasks = [ExecutionTask(clifford_circuit(6, flips=(i,)),
                               observable=ising_hamiltonian(6, 1.0))
                 for i in range(6)]
        policy = ExecutionPolicy(parallel=parallel, max_workers=2)
        Executor(use_cache=False).run(tasks, backend=backend, policy=policy)
        assert backend.invocations == 6

    def test_killed_sweep_resumes_warm_from_checkpoint_cache(self):
        template = FullyConnectedAnsatz(4, depth=1).build()
        rng = np.random.default_rng(7)
        points = rng.standard_normal(
            (24, len(template.ordered_parameters()))).tolist()
        observable = ising_hamiltonian(4)
        inline = Executor(use_cache=False).evaluate_sweep(
            template, points, observable, backend="statevector",
            policy=ExecutionPolicy(parallel="none"))
        policy = ExecutionPolicy(parallel="process", max_workers=2)
        # A "killed" multi-worker run: only half the sweep's blocks landed
        # (and were flushed through the executor's cache) before it died.
        executor = Executor()
        executor.evaluate_sweep(template, points[:12], observable,
                                backend="statevector", policy=policy)
        assert executor.stats.backend_invocations == {"statevector": 12}
        assert executor.stats.process_shards > 0
        # Resume on the same executor: the flushed points are served from
        # the checkpoint cache, only the rest is computed.
        values = executor.evaluate_sweep(template, points, observable,
                                         backend="statevector",
                                         policy=policy)
        assert np.allclose(values, inline, atol=1e-12)
        assert executor.stats.backend_invocations == {"statevector": 24}
        assert executor.stats.term_cache_hits > 0
        # A full re-run recomputes nothing at all.
        shards = executor.stats.process_shards
        again = executor.evaluate_sweep(template, points, observable,
                                        backend="statevector", policy=policy)
        assert np.array_equal(again, values)
        assert executor.stats.backend_invocations == {"statevector": 24}
        assert executor.stats.process_shards == shards

    @pytest.mark.parametrize("parallel", ["none", "process"])
    @pytest.mark.parametrize("engine", ["statevector", "pauli_propagation"])
    def test_compiled_sweep_counts_backend_invocations(self, parallel,
                                                       engine):
        # A compiled sweep's shards never see the backend object: the
        # sweep counts its unique points on it, like a bound-circuit batch.
        template = FullyConnectedAnsatz(4, depth=1).build()
        rng = np.random.default_rng(3)
        width = len(template.ordered_parameters())
        if engine == "statevector":
            backend = StatevectorBackend()
            points = rng.uniform(-3.0, 3.0, (40, width))
        else:  # Clifford points, at multiples of pi/2
            backend = PauliPropagationBackend()
            points = rng.integers(0, 4, (8, width)) * (np.pi / 2)
        executor = Executor(use_cache=False)
        executor.evaluate_sweep(template, points, ising_hamiltonian(4, 1.0),
                                backend=backend,
                                policy=ExecutionPolicy(parallel=parallel,
                                                       max_workers=2))
        assert backend.invocations == len(points)
        assert executor.stats.backend_invocations == {engine: len(points)}
        if parallel == "process":
            assert executor.stats.process_shards > 0

    def test_results_keep_caller_task_objects(self):
        task = ExecutionTask(clifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0))
        other = ExecutionTask(clifford_circuit(3, flips=(0,)),
                              observable=ising_hamiltonian(3, 1.0))
        results = Executor(use_cache=False).run(
            [task, other], backend="statevector",
            policy=ExecutionPolicy(parallel="process", max_workers=2))
        assert results[0].task is task  # not a pickled copy
        assert results[1].task is other

    def test_sampling_tasks_ride_process_shards(self):
        tasks = [ExecutionTask(clifford_circuit(3), shots=64)
                 for _ in range(4)]
        results = execute(tasks, backend="statevector",
                          policy=ExecutionPolicy(parallel="process",
                                                 max_workers=2))
        for result in results:
            assert sum(result.counts.values()) == 64

    def test_custom_thread_backend_still_works(self):
        class CountingBackend(Backend):
            def capabilities(self):
                return BackendCapabilities(name="counting",
                                           supports_noise=False)

            def _run_task(self, task):
                return 1.0

        backend = CountingBackend()
        results = Executor(use_cache=False).run(
            [ExecutionTask(clifford_circuit(6, flips=(i,)),
                           observable=ising_hamiltonian(6, 1.0))
             for i in range(6)], backend=backend)
        assert [r.value for r in results] == [1.0] * 6
        assert backend.invocations == 6

    def test_seeded_statevector_backend_unaffected_by_sharding(self):
        # Sampling seeds derive from (seed, task fingerprint), so process
        # sharding cannot change drawn shots either.
        tasks = [ExecutionTask(clifford_circuit(4, flips=(i % 4,)), shots=32)
                 for i in range(6)]
        inline = Executor(use_cache=False).run(
            tasks, backend=StatevectorBackend(seed=5),
            policy=ExecutionPolicy(parallel="none"))
        sharded = Executor(use_cache=False).run(
            tasks, backend=StatevectorBackend(seed=5),
            policy=ExecutionPolicy(parallel="process", max_workers=3))
        assert [r.counts for r in inline] == [r.counts for r in sharded]
