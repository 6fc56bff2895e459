"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Re-executes itself under the benchmark's pinned environment, runs each
named workload (default: all) once in-process and writes its outputs to
``references.json``.  The ``service-jobs`` references are the in-process
``Executor`` results for every job in the fixed pool, so a service run is
checked bitwise against a path that never touches the server.  Run this
only when a change is meant to alter a workload's outputs.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def service_references() -> dict:
    from repro.execution import Executor
    from repro.io.serialization import pauli_sum_from_dict, template_from_dict
    from repro.qec import (MWPMDecoder, rotated_surface_code_graph,
                           run_memory_sampling)
    references = {}
    with Executor(use_cache=False) as executor:
        for index in range(workloads.SWEEP_POOL):
            payload = workloads.sweep_job(index)
            energies = executor.evaluate_sweep(
                template_from_dict(payload["template"]),
                payload["parameter_sets"],
                pauli_sum_from_dict(payload["observable"]))
            references[f"sweep-{index}"] = {
                "energies": [float(value) for value in energies]}
    for index in range(workloads.QEC_POOL):
        payload = workloads.qec_job(index)
        graph = rotated_surface_code_graph(
            payload["distance"], payload["rounds"], payload["error_rate"])
        sampled = run_memory_sampling(graph, MWPMDecoder(graph),
                                      payload["shots"], seed=payload["seed"],
                                      use_cache=False)
        references[f"qec-{index}"] = {
            "failures": sampled.failures,
            "total_defects": sampled.total_defects,
            "logical_error_rate": sampled.logical_error_rate}
    return references


def main() -> int:
    env = run.pinned_env()
    if any(os.environ.get(key) != value for key, value in run.PINNED.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    from repro.execution import reset_default_executor
    from repro.execution.sharding import shutdown_process_pool
    path = os.path.join(run.HERE, "references.json")
    references = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as stream:
            references = json.load(stream)
    for name in sys.argv[1:] or workloads.NAMES:
        if name == "service-jobs":
            references[name] = service_references()
        else:
            setup, execute, _ = workloads.WORKLOADS[name]
            references[name] = {record["label"]: record["output"]
                                for record in execute(setup(0))}
        reset_default_executor()
        shutdown_process_pool()
        print(f"recorded {name}: {len(references[name])} outputs")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(references, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
