"""Quantum state simulators and noise models.

All four engines share the keyword surface
``expectation(circuit, observable, *, initial_state=None, trajectories=None)``
and its grouped counterpart ``expectation_many(...) -> np.ndarray`` (per-term
values from a single evolution), which is what lets the execution layer treat
them interchangeably behind the :class:`repro.execution.Backend` protocol.
"""

from .density_matrix import DensityMatrix, DensityMatrixSimulator
from .kernels import (density_matrix_term_expectations, observable_bit_matrices,
                      statevector_term_expectations)
from .noise import (ErrorLocation, NoiseModel, PauliChannel, QuantumChannel,
                    amplitude_damping_channel, bit_flip_channel,
                    depolarizing_channel, pauli_error_channel, pauli_twirl,
                    phase_damping_channel, phase_flip_channel,
                    thermal_relaxation_channel, two_qubit_tensor_channel)
from .pauli_propagation import (CliffordProgram, PauliPropagationSimulator,
                                compile_clifford, expectation_value)
from .program import (CompiledProgram, compile_circuit, program_cache_counters,
                      run_batch, run_interpreted)
from .stabilizer import (DenseStabilizerState, StabilizerSimulator,
                         StabilizerState)
from .statevector import Statevector, StatevectorSimulator, circuit_unitary

__all__ = [
    "CliffordProgram",
    "CompiledProgram",
    "DensityMatrix",
    "DensityMatrixSimulator",
    "ErrorLocation",
    "NoiseModel",
    "PauliChannel",
    "PauliPropagationSimulator",
    "QuantumChannel",
    "DenseStabilizerState",
    "StabilizerSimulator",
    "StabilizerState",
    "Statevector",
    "StatevectorSimulator",
    "amplitude_damping_channel",
    "bit_flip_channel",
    "circuit_unitary",
    "compile_circuit",
    "compile_clifford",
    "density_matrix_term_expectations",
    "depolarizing_channel",
    "expectation_value",
    "observable_bit_matrices",
    "program_cache_counters",
    "run_batch",
    "run_interpreted",
    "statevector_term_expectations",
    "pauli_error_channel",
    "pauli_twirl",
    "phase_damping_channel",
    "phase_flip_channel",
    "thermal_relaxation_channel",
    "two_qubit_tensor_channel",
]
