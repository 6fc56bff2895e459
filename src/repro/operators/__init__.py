"""Pauli algebra, fermionic operators and benchmark Hamiltonians."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fermion": ["FermionicOperator", "MolecularIntegrals", "bravyi_kitaev",
                "bravyi_kitaev_matrix", "fermi_hubbard", "jordan_wigner",
                "map_to_qubits", "molecular_fermionic_hamiltonian",
                "molecular_hamiltonian_from_integrals",
                "synthetic_molecular_integrals"],
    "graphs": ["GraphInstance", "cut_value", "erdos_renyi_graph",
               "exact_maxcut", "graph_benchmark_suite",
               "maxcut_cost_hamiltonian", "random_regular_graph",
               "ring_graph"],
    "grouping": ["MeasurementBudget", "MeasurementGroup", "group_commuting",
                 "grouped_measurement_overhead", "num_measurement_circuits",
                 "shot_budget"],
    "hamiltonians": ["PAPER_COUPLINGS", "BenchmarkInstance",
                     "exact_ground_state", "heisenberg_hamiltonian",
                     "ising_hamiltonian", "maxcut_hamiltonian",
                     "physics_benchmark_suite"],
    "molecules": ["PAPER_BOND_LENGTHS", "PAPER_NUM_QUBITS", "MolecularSpec",
                  "available_molecules", "chemistry_benchmark_suite",
                  "molecular_hamiltonian", "molecule_spec"],
    "pauli": ["PauliString", "PauliSum"],
})
