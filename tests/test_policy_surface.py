"""``policy=`` is the only per-call fan-out argument.

Every entry point that fans work out takes one
:class:`~repro.execution.ExecutionPolicy` (or None) and nothing else: no
public callable of the execution, QEC, VQE or algorithm packages takes
``parallel`` or ``max_workers``, anything other than a policy is rejected,
and the QEC memory experiments honour a per-call policy.

:class:`ExecutionPolicy` itself is checked here too: resolution order, the
single ``from_env`` reader, the wire (payload) form, the ``max_workers <=
0`` bugfix (ValueError, never a silent clamp) and the absence of any
retry budget (a retry field, keyword or wire key fails, naming itself).
The job server's :class:`~repro.service.ServiceConfig` validates its
knobs the same way.
"""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz
from repro.execution import (ExecutionError, ExecutionPolicy, Executor,
                             ShardPlanner, resolve_workers)
from repro.execution.sharding import WORKERS_ENV
from repro.operators import ising_hamiltonian
from repro.qec.decoder import RepetitionMatchingDecoder
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.sampling import reset_sampling_stats, sampling_stats
from repro.service import ServiceConfig
from repro.service.config import (MAX_ATTEMPTS_ENV, RETRY_BACKOFF_ENV,
                                  WORKERS_ENV as SERVICE_WORKERS_ENV)
from repro.qec.surface_memory import SurfaceCodeMemory

PACKAGES = ("repro.execution", "repro.qec", "repro.vqe", "repro.algorithms")
LEGACY = {"parallel", "max_workers"}

#: The planner and the worker-count resolver are the layers a resolved
#: policy's fields are handed to; ExecutionPolicy carries them as fields.
ALLOWED = {ShardPlanner.__init__, resolve_workers, ExecutionPolicy.__init__}

#: (module, qualified name) of every public entry point that fans out.
FAN_OUT_ENTRY_POINTS = [
    ("repro.execution.executor", "Executor.__init__"),
    ("repro.execution.executor", "Executor.run"),
    ("repro.execution.executor", "Executor.term_expectations"),
    ("repro.execution.executor", "Executor.evaluate_observable"),
    ("repro.execution.executor", "Executor.evaluate_sweep"),
    ("repro.execution.executor", "Executor.evaluate_point"),
    ("repro.execution.executor", "execute"),
    ("repro.execution.executor", "evaluate_observable"),
    ("repro.execution.executor", "evaluate_sweep"),
    ("repro.execution.executor", "term_expectations"),
    ("repro.execution.observables", "run_grouped"),
    ("repro.qec.sampling", "run_memory_sampling"),
    ("repro.qec.rare_event", "run_rare_event_sampling"),
    ("repro.vqe.energy", "BackendEnergyEvaluator.__init__"),
    ("repro.qec.surface_memory", "SurfaceCodeMemory.run"),
    ("repro.qec.surface_memory", "surface_code_memory_experiment"),
    ("repro.qec.surface_memory", "repetition_code_memory_experiment"),
    ("repro.qec.surface_memory", "decoder_comparison"),
    ("repro.qec.surface_memory", "logical_error_rate_curve"),
]


def _resolve(module, qualname):
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _public_callables():
    seen = set()
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", dir(module)):
            value = getattr(module, name)
            functions = []
            if inspect.isclass(value):
                functions = [member for attr, member in vars(value).items()
                             if inspect.isfunction(member)
                             and (attr == "__init__"
                                  or not attr.startswith("_"))]
            elif inspect.isfunction(value):
                functions = [value]
            for function in functions:
                if function not in seen:
                    seen.add(function)
                    yield f"{package}.{name}", function


def test_no_public_callable_takes_the_legacy_pair():
    offenders = [
        f"{owner}: {function.__qualname__}"
        for owner, function in _public_callables()
        if function not in ALLOWED
        and LEGACY & set(inspect.signature(function).parameters)]
    assert offenders == []


@pytest.mark.parametrize("module, qualname", FAN_OUT_ENTRY_POINTS)
def test_fan_out_entry_points_take_policy(module, qualname):
    parameters = inspect.signature(_resolve(module, qualname)).parameters
    assert "policy" in parameters
    assert not LEGACY & set(parameters)


@pytest.mark.parametrize("policy", [{"parallel": "process"}, "process"])
def test_resolve_policy_rejects_non_policies(policy):
    with pytest.raises(ExecutionError, match="ExecutionPolicy"):
        Executor()._resolve_policy(policy)
    with pytest.raises(ExecutionError, match="ExecutionPolicy"):
        Executor(policy=policy)


def test_resolution_order_call_executor_environment(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    executor = Executor(policy=ExecutionPolicy(parallel="none",
                                               max_workers=2))
    assert executor._resolve_policy(ExecutionPolicy(parallel="process")) \
        == ExecutionPolicy(parallel="process", max_workers=2)
    assert Executor()._resolve_policy().max_workers == 3


class TestMemoryExperimentsHonourPerCallPolicy:
    """A per-call policy overrides the executor's inline default: the run
    goes out as one process shard per requested worker, and the failure
    count is the inline run's, decoded once."""

    SHOTS = 1024

    def _run(self, make, policy):
        reset_sampling_stats()
        executor = Executor(use_cache=False,
                            policy=ExecutionPolicy(parallel="none"))
        outcome = make().run(self.SHOTS, executor=executor, policy=policy)
        return outcome, sampling_stats()

    def _check(self, make):
        inline, _ = self._run(make, None)
        pooled, stats = self._run(make, ExecutionPolicy(parallel="process",
                                                        max_workers=2))
        assert pooled.failures == inline.failures
        assert stats.shots_decoded == self.SHOTS
        assert stats.process_shards == 2

    def test_surface_code_memory(self):
        graph = rotated_surface_code_graph(3, 3, 2e-2)
        self._check(lambda: SurfaceCodeMemory(graph, seed=5))

    def test_repetition_code_memory(self):
        graph = repetition_code_graph(3, 3, 5e-2)
        self._check(lambda: SurfaceCodeMemory(
            graph, RepetitionMatchingDecoder, seed=9))


def _sweep_fixture(num_qubits=4, points=24, seed=7):
    template = FullyConnectedAnsatz(num_qubits, depth=1).build()
    rng = np.random.default_rng(seed)
    parameter_sets = rng.standard_normal(
        (points, len(template.ordered_parameters()))).tolist()
    return template, parameter_sets, ising_hamiltonian(num_qubits)


class TestExecutionPolicy:

    def test_invalid_parallel_mode_rejected(self):
        # "auto" and "thread" were modes once; the error names the two left.
        for mode in ("bogus", "auto", "thread"):
            with pytest.raises(ExecutionError,
                               match=r"parallel must be one of \('none', "
                                     r"'process'\)"):
                ExecutionPolicy(parallel=mode)

    def test_retry_type_checked(self):
        # A pooled shard has one recovery rule and no retry budget: retry
        # is no policy field.
        with pytest.raises(TypeError, match="retry"):
            ExecutionPolicy(retry=5)
        assert [f.name for f in dataclasses.fields(ExecutionPolicy)] \
            == ["parallel", "max_workers"]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_zero_or_negative_workers_rejected(self, workers):
        # The bugfix: an explicit nonsense worker count is an error that
        # names the env-var escape hatch, never a silent clamp to 1.
        with pytest.raises(ValueError, match=WORKERS_ENV):
            ExecutionPolicy(max_workers=workers)

    def test_zero_workers_rejected_everywhere(self):
        with pytest.raises(ValueError, match="max_workers"):
            Executor(policy=ExecutionPolicy(max_workers=0))
        with pytest.raises(ValueError):
            resolve_workers(0)
        template, points, observable = _sweep_fixture(num_qubits=2, points=2)
        with pytest.raises(ValueError, match="max_workers"):
            Executor(use_cache=False).evaluate_sweep(
                template, points, observable, backend="statevector",
                policy=ExecutionPolicy(max_workers=-1))

    def test_from_env_reads_all_knobs(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        # The removed shard-retry variable is no knob: it is ignored.
        monkeypatch.setenv("REPRO_SHARD_RETRIES", "-5")
        assert ExecutionPolicy.from_env() == ExecutionPolicy(max_workers=3)

    def test_from_env_rejects_zero_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            ExecutionPolicy.from_env()

    @pytest.mark.parametrize("fields", [
        {"max_retries": -1}, {"max_retries": "3"}, {"max_retries": 1.5},
        {"max_retries": True}, {"backoff_base": -0.1}, {"backoff_cap": -1},
        {"backoff_base": float("nan")}, {"timeout": 0}, {"timeout": -2.0},
        {"timeout": "5"}])
    def test_retry_policy_rejects_nonsense(self, fields):
        # The former retry-budget fields are refused by name, good values
        # or bad: no policy carries a retry budget.
        with pytest.raises(TypeError, match=next(iter(fields))):
            ExecutionPolicy(**fields)

    @pytest.mark.parametrize("name, value", [(WORKERS_ENV, "abc")],
                             ids=["workers-abc"])
    def test_from_env_names_the_bad_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            ExecutionPolicy.from_env()
        if name == WORKERS_ENV:
            with pytest.raises(ValueError, match=name):
                resolve_workers(None)

    def test_from_payload_validates_retry(self):
        # A retry budget on the wire is an unknown key, named.
        with pytest.raises(ExecutionError, match="unknown .*'retry'"):
            ExecutionPolicy.from_payload(
                {"retry": {"max_retries": 3, "timeout": 1.0}})

    def test_merged_over_precedence(self):
        call = ExecutionPolicy(parallel="process")
        base = ExecutionPolicy(parallel="none", max_workers=4)
        merged = call.merged_over(base)
        assert merged.parallel == "process"  # the more specific layer wins
        assert merged.max_workers == 4       # unset fields fall through

    def test_payload_round_trip(self):
        policy = ExecutionPolicy(parallel="process", max_workers=2)
        assert policy.to_payload() == {"parallel": "process",
                                       "max_workers": 2}
        assert ExecutionPolicy.from_payload(policy.to_payload()) == policy

    def test_from_payload_rejects_unknown_keys(self):
        with pytest.raises(ExecutionError, match="unknown"):
            ExecutionPolicy.from_payload({"parallelism": 4})
        # Process shards have one placement, the fork pool: there is no
        # broker to choose, on the wire or in the constructor.
        with pytest.raises(ExecutionError, match="unknown"):
            ExecutionPolicy.from_payload({"broker": "/tmp/spool"})
        with pytest.raises(TypeError):
            ExecutionPolicy(broker="/tmp/spool")
        assert ExecutionPolicy().broker is None


class TestServiceConfig:

    @pytest.mark.parametrize("fields", [
        {"workers": 0}, {"workers": -1}, {"workers": True},
        {"workers": 1.5}, {"max_pending": 0}, {"max_attempts": 0},
        {"max_attempts": "2"}, {"retry_backoff": -0.1},
        {"retry_backoff": float("nan")}, {"retry_backoff": "0.2"}],
        ids=["workers-zero", "workers-neg", "workers-bool", "workers-float",
             "pending-zero", "attempts-zero", "attempts-str", "backoff-neg",
             "backoff-nan", "backoff-str"])
    def test_rejects_nonsense(self, fields):
        # workers=0 and max_attempts=0 used to be clamped to 1, and
        # max_pending=0 started a server that refused every submission.
        with pytest.raises(ValueError, match=next(iter(fields))):
            ServiceConfig(**fields)

    def test_accepts_boundary_values(self):
        config = ServiceConfig(workers=1, max_pending=1, max_attempts=1,
                               retry_backoff=0)
        assert (config.workers, config.max_pending) == (1, 1)

    @pytest.mark.parametrize("name, value", [
        (SERVICE_WORKERS_ENV, "abc"), (SERVICE_WORKERS_ENV, "0"),
        (MAX_ATTEMPTS_ENV, "two"), (RETRY_BACKOFF_ENV, "fast"),
        (RETRY_BACKOFF_ENV, "-1")],
        ids=["workers-abc", "workers-zero", "attempts-two", "backoff-fast",
             "backoff-neg"])
    def test_from_env_names_the_bad_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            ServiceConfig.from_env()

    def test_from_env_reads_the_knobs_under_overrides(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV, "3")
        monkeypatch.setenv(MAX_ATTEMPTS_ENV, "4")
        monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.5")
        config = ServiceConfig.from_env(workers=5, db_path="r.db")
        assert (config.workers, config.max_attempts, config.retry_backoff,
                config.db_path) == (5, 4, 0.5, "r.db")

    def test_six_fields_and_no_lease_knob(self):
        assert [field.name for field in dataclasses.fields(
            ServiceConfig)] == ["socket_path", "db_path", "workers",
                                "max_pending", "max_attempts",
                                "retry_backoff"]
        with pytest.raises(TypeError):
            ServiceConfig(lease_seconds=15.0)
