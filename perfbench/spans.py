"""Span tracing taken from outside the code: wrappers around each layer's
public functions.

A span is one call into a wrapped function: ``(name, start, end, id,
parent, pid, tid)``.  Each thread keeps its own span stack, so a span's
parent is the innermost wrapped call still open on the same thread.  The
traced process keeps its spans in memory and writes them once at the end;
a forked pool worker opens its own ``spans-<pid>.jsonl`` and flushes after
every span, because pool workers exit without running ``atexit``.

Nothing under ``src/`` is changed: the wrappers replace class attributes
and every module-level binding of a wrapped function in the imported
``repro`` modules, before the fork pool exists, so the workers inherit
them.  ``report.py`` turns the span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: Layer name -> (module, attribute path) of every function it wraps.
LAYERS = {
    "circuits.bind": [("repro.circuits.circuit",
                       "QuantumCircuit.bind_parameters")],
    "circuits.fingerprint": [("repro.circuits.circuit",
                              "QuantumCircuit.fingerprint")],
    "circuits.transpile": [("repro.circuits.transpile",
                            "decompose_to_clifford_rz"),
                           ("repro.circuits.transpile", "merge_rz_runs")],
    "simulators.compile": [("repro.simulators.program", "compile_circuit")],
    "simulators.density_matrix": [
        ("repro.simulators.program", "CompiledProgram.run_density_matrix")],
    "simulators.statevector": [("repro.simulators.program", "run_batch"),
                               ("repro.simulators.program",
                                "CompiledProgram.run_statevector")],
    "simulators.readout": [
        ("repro.simulators.kernels", "statevector_term_expectations"),
        ("repro.simulators.kernels", "statevector_term_expectations_batch"),
        ("repro.simulators.kernels", "density_matrix_term_expectations")],
    "simulators.twirl": [
        ("repro.simulators.noise", "QuantumChannel.pauli_twirl_probabilities"),
        ("repro.simulators.noise", "PauliChannel.pauli_twirl_probabilities")],
    "simulators.pauli_propagation": [
        ("repro.simulators.pauli_propagation", "propagate"),
        ("repro.simulators.pauli_propagation",
         "PauliPropagationSimulator.expectation_many")],
    "execution.plan": [("repro.execution.sharding", "ShardPlanner.plan")],
    "execution.dispatch": [("repro.execution.sharding", "run_sharded")],
    "qec.sample": [("repro.qec.sampling", "sample_errors")],
    "qec.extract": [("repro.qec.sampling", "packed_syndromes_and_flips")],
    "qec.decode": [("repro.qec.decoders.mwpm", "MWPMDecoder.decode"),
                   ("repro.qec.decoders.union_find",
                    "UnionFindDecoder.decode")],
    "vqe.objective": [("repro.vqe.runner", "VQE.energy"),
                      ("repro.vqe.runner", "VQE.energy_sweep"),
                      ("repro.vqe.clifford_vqe",
                       "CliffordVQE.energy_from_indices"),
                      ("repro.vqe.clifford_vqe",
                       "CliffordVQE.energy_from_population")],
    "vqe.optimizer": [("repro.vqe.optimizers", "CobylaOptimizer.minimize"),
                      ("repro.vqe.optimizers", "GeneticOptimizer.minimize")],
}


class Tracer:
    """Records spans for this process and, after a fork, for the child."""

    def __init__(self, directory: str):
        self.directory = directory
        self.pid = os.getpid()
        self.records = []
        self.stream = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Only the forking thread survives; its open spans belong to the
        # parent, so the child starts with an empty stack and its own file.
        self.pid = os.getpid()
        self.records = []
        self._local = threading.local()
        self.stream = open(self._path(), "a", encoding="utf-8")

    def _path(self) -> str:
        return os.path.join(self.directory, f"spans-{self.pid}.jsonl")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._emit({"n": name, "s": start, "e": end, "id": span_id,
                            "p": parent, "pid": self.pid,
                            "tid": threading.get_ident()})
            if name == "execution.plan":
                self._emit({"n": "execution.plan.mode", "mode": result.mode,
                            "pid": self.pid})
            return result

        return traced

    def _emit(self, record: dict) -> None:
        if self.stream is None:
            self.records.append(record)
        else:
            self.stream.write(json.dumps(record) + "\n")
            self.stream.flush()

    def write(self) -> None:
        """Write the in-memory spans of this (the traced) process."""
        with open(self._path(), "w", encoding="utf-8") as stream:
            for record in self.records:
                stream.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS`.

    A module-level function is also rebound wherever another ``repro``
    module imported it by name (``from .program import compile_circuit``),
    so every call site sees the wrapper.
    """
    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attribute]
            wrapper = tracer.wrap(layer, original)
            setattr(owner, attribute, wrapper)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
