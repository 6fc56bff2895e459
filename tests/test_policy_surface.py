"""``policy=`` is the only per-call fan-out argument.

Every entry point that fans work out takes one
:class:`~repro.execution.ExecutionPolicy` (or None) and nothing else: no
public callable of the execution, QEC, VQE or algorithm packages takes
``parallel`` or ``max_workers``, anything other than a policy is rejected,
and the QEC memory experiments honour a per-call broker.
"""

import importlib
import inspect

import pytest

from repro.execution import (ExecutionError, ExecutionPolicy, Executor,
                             ShardPlanner, resolve_workers)
from repro.qec.decoders.graph import rotated_surface_code_graph
from repro.qec.memory_experiment import RepetitionCodeMemory
from repro.qec.sampling import reset_sampling_stats, sampling_stats
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
    ("repro.qec.memory_experiment", "RepetitionCodeMemory.run"),
    ("repro.qec.memory_experiment", "logical_error_rate_sweep"),
    ("repro.qec.surface_memory", "SurfaceCodeMemory.run"),
    ("repro.qec.surface_memory", "surface_code_memory_experiment"),
    ("repro.qec.surface_memory", "repetition_code_memory_experiment"),
    ("repro.qec.surface_memory", "decoder_comparison"),
    ("repro.qec.surface_memory", "logical_error_rate_curve"),
    ("repro.algorithms.vqd", "VQD.evaluate_levels"),
    ("repro.algorithms.qml", "VariationalClassifier.__init__"),
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
    assert executor._resolve_policy(ExecutionPolicy(parallel="thread")) \
        == ExecutionPolicy(parallel="thread", max_workers=2)
    assert Executor()._resolve_policy().max_workers == 3


class TestMemoryExperimentsHonourPerCallBroker:
    """A spool with no live worker: the parent steals every shard, and the
    failure count is the inline run's, decoded once."""

    SHOTS = 1024

    def _run(self, make, policy):
        reset_sampling_stats()
        outcome = make().run(self.SHOTS, executor=Executor(use_cache=False),
                             policy=policy)
        return outcome, sampling_stats()

    def _check(self, make, failures, tmp_path):
        inline, _ = self._run(make, ExecutionPolicy(parallel="none"))
        spool = ExecutionPolicy(parallel="process", max_workers=2,
                                broker=str(tmp_path / "spool"))
        stolen, stats = self._run(make, spool)
        assert failures(stolen) == failures(inline)
        assert stats.shots_decoded == self.SHOTS
        assert stats.process_shards == 2
        assert (tmp_path / "spool" / "results").is_dir()

    def test_surface_code_memory(self, tmp_path):
        graph = rotated_surface_code_graph(3, 3, 2e-2)
        self._check(lambda: SurfaceCodeMemory(graph, seed=5),
                    lambda outcome: outcome.failures, tmp_path)

    def test_repetition_code_memory(self, tmp_path):
        self._check(lambda: RepetitionCodeMemory(
            3, physical_error_rate=5e-2, seed=9),
            lambda outcome: outcome.logical_failures, tmp_path)
