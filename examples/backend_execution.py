"""The unified execution API: one execute() call, three simulators.

Builds a mixed batch of tasks — noiseless and noisy, Clifford and
continuous-angle — and submits them through a single regime-aware
``execute()`` call, then demonstrates what the execution layer adds on top of
the raw simulators: auto-routing, duplicate collapsing, the
fingerprint-keyed expectation cache that makes optimizer-style re-evaluation
nearly free, and the grouped-observable engine that evolves each circuit
once no matter how many Hamiltonian terms it is scored against.

Run with:  python examples/backend_execution.py
"""

import time

from repro import (ExecutionTask, available_backends, evaluate_observable,
                   execute, get_backend, ising_hamiltonian)
from repro.ansatz import FullyConnectedAnsatz
from repro.circuits import QuantumCircuit
from repro.execution import default_executor
from repro.simulators import NoiseModel, depolarizing_channel


def clifford_state_prep(num_qubits: int) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        qc.h(qubit)
    for qubit in range(num_qubits - 1):
        qc.cx(qubit, qubit + 1)
    return qc


def main() -> None:
    print("registered backends:")
    for name in available_backends():
        caps = get_backend(name).capabilities()
        print(f"  {name:>18}: {caps.description}")

    # --- 1. Mixed batch, auto-routed ---------------------------------------
    num_qubits = 6
    hamiltonian = ising_hamiltonian(num_qubits, coupling=1.0)
    noise = NoiseModel().add_gate_error(depolarizing_channel(0.01, 2), ["cx"])

    clifford = clifford_state_prep(num_qubits)
    smooth = clifford.copy()
    smooth.rz(0.37, 0)

    tasks = [
        ExecutionTask(clifford, observable=hamiltonian),
        ExecutionTask(clifford, observable=hamiltonian, noise_model=noise),
        ExecutionTask(smooth, observable=hamiltonian),
        ExecutionTask(smooth, observable=hamiltonian, noise_model=noise),
        ExecutionTask(smooth, observable=hamiltonian, backend="sv"),
    ]
    print("\n--- one execute() call, regime-aware routing ---")
    for result in execute(tasks, backend="auto"):
        noisy = "noisy    " if result.task.has_noise else "noiseless"
        print(f"  {noisy} {'Clifford' if result.task.is_clifford() else 'smooth  '}"
              f" -> {result.backend_name:>18}: <H> = {result.value:+.6f}")

    # --- 2. Dedup + cache: a VQE-style sweep with repeated parameters ------
    ansatz = FullyConnectedAnsatz(num_qubits, depth=1)
    template = ansatz.build()
    num_params = len(template.ordered_parameters())
    sweep = [[0.1 * step] * num_params for step in range(8)]
    sweep = sweep * 3  # an optimizer revisiting the same points

    executor = default_executor()
    executor.reset_stats()
    start = time.perf_counter()
    results = execute([ExecutionTask(template.bind_parameters(theta),
                                     observable=hamiltonian)
                       for theta in sweep], backend="statevector")
    elapsed = time.perf_counter() - start

    stats = executor.stats
    print("\n--- batched sweep with duplicates (24 tasks, 8 unique) ---")
    print(f"  wall time            : {elapsed * 1e3:.1f} ms")
    print(f"  simulator invocations: {stats.simulator_invocations}")
    print(f"  dedup hits           : {stats.dedup_hits}")
    print(f"  energies (first 4)   : "
          f"{[round(r.value, 4) for r in results[:4]]}")

    # Re-running the whole sweep is served from the expectation cache.
    start = time.perf_counter()
    execute([ExecutionTask(template.bind_parameters(theta),
                           observable=hamiltonian) for theta in sweep],
            backend="statevector")
    cached_elapsed = time.perf_counter() - start
    print("\n--- same sweep, second call ---")
    print(f"  wall time : {cached_elapsed * 1e3:.1f} ms "
          f"({elapsed / max(cached_elapsed, 1e-9):.0f}x faster)")
    print(f"  cache     : {executor.cache_stats}")

    # --- 3. Grouped observables: one evolution per circuit -----------------
    # The legacy pattern submits one single-term task per Pauli term and
    # re-evolves the circuit every time; the grouped engine evolves once and
    # reads all terms off the final state with vectorized kernels.
    circuits = [template.bind_parameters([0.1 * step] * num_params)
                for step in range(4)]
    executor.reset_stats()

    start = time.perf_counter()
    per_term = [ExecutionTask(circuit, observable=hamiltonian)
                for circuit in circuits]
    subtasks = [sub for task in per_term for sub in task.split_terms()]
    execute(subtasks, backend="statevector", use_cache=False)
    per_term_elapsed = time.perf_counter() - start
    per_term_invocations = executor.stats.simulator_invocations

    executor.reset_stats()
    start = time.perf_counter()
    energies = evaluate_observable(circuits, hamiltonian,
                                   backend="statevector", use_cache=False)
    grouped_elapsed = time.perf_counter() - start

    print(f"\n--- grouped observables ({hamiltonian.num_terms}-term "
          f"Hamiltonian, {len(circuits)} circuits) ---")
    print(f"  per-term path : {per_term_elapsed * 1e3:7.1f} ms, "
          f"{per_term_invocations} evolutions")
    print(f"  grouped path  : {grouped_elapsed * 1e3:7.1f} ms, "
          f"{executor.stats.simulator_invocations} evolutions "
          f"({per_term_elapsed / max(grouped_elapsed, 1e-9):.1f}x faster)")
    print(f"  energies      : {[round(energy, 4) for energy in energies]}")


if __name__ == "__main__":
    main()
