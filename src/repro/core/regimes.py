"""Execution regimes: NISQ, pQEC, qec-conventional, qec-cultivation.

A regime bundles

* the per-operation error rates the paper assumes for it (Sec. 4.4, 5.2.1),
* a :class:`~repro.simulators.noise.NoiseModel` for circuit-level simulation
  (density-matrix for ≤12 qubits, Pauli propagation for more) —
  available for the NISQ and pQEC regimes, which is what the paper simulates,
  and
* the inputs the analytic fidelity estimator (:mod:`repro.core.fidelity`)
  needs — available for all four regimes, including the Clifford+T baselines
  whose synthesized circuits are too large to simulate directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..qec.cultivation import CultivationUnit
from ..qec.distillation import FactoryConfig, get_factory
from ..qec.surface_code import (EFT_CODE_DISTANCE, EFT_PHYSICAL_ERROR_RATE,
                                LogicalOperationErrorModel)
from ..simulators.noise import (NoiseModel, PauliChannel, depolarizing_channel,
                                thermal_relaxation_channel)
from .injection import (effective_rotation_error,
                        expected_consumptions_per_rotation,
                        injection_error_pauli_probabilities,
                        injection_error_rate)


class ExecutionRegime:
    """Base class for execution regimes."""

    name = "regime"

    def error_rates(self) -> Dict[str, float]:
        """Per-operation error rates used by the analytic fidelity model."""
        raise NotImplementedError

    def noise_model(self) -> NoiseModel:
        """Circuit-level noise model (only for directly simulable regimes)."""
        raise NotImplementedError(
            f"the {self.name} regime is evaluated analytically; it has no "
            f"circuit-level noise model")

    def is_simulable(self) -> bool:
        return False

    def __repr__(self):
        rates = ", ".join(f"{k}={v:.2e}" for k, v in sorted(self.error_rates().items()))
        return f"{type(self).__name__}({rates})"


@dataclass
class NISQRegime(ExecutionRegime):
    """Uncorrected near-term execution (the paper's NISQ baseline, Sec. 4.4).

    Error rates: CNOT ``p``, non-Rz single-qubit gates ``p/10``, Rz gates 0
    (virtual-Z), measurement ``10·p``, with ``p = 1e-3`` by default.  The
    density-matrix noise model additionally mixes in thermal relaxation for
    gates, measurement and idling, as in the paper's Sec. 5.2.1 setup.
    """

    physical_error_rate: float = EFT_PHYSICAL_ERROR_RATE
    t1_seconds: float = 1.2e-3
    t2_seconds: float = 1.2e-3
    one_qubit_gate_seconds: float = 35e-9
    two_qubit_gate_seconds: float = 300e-9
    measurement_seconds: float = 4000e-9
    include_thermal_relaxation: bool = True

    name = "nisq"

    # -- rates -------------------------------------------------------------------
    @property
    def cnot_error(self) -> float:
        return self.physical_error_rate

    @property
    def single_qubit_error(self) -> float:
        return self.physical_error_rate / 10.0

    @property
    def rz_error(self) -> float:
        return 0.0  # virtual-Z rotations are error-free on NISQ hardware

    @property
    def measurement_error(self) -> float:
        return 10.0 * self.physical_error_rate

    @property
    def idle_error(self) -> float:
        """Per-layer idling error from thermal relaxation."""
        if not self.include_thermal_relaxation:
            return 0.0
        return 1.0 - math.exp(-self.two_qubit_gate_seconds / self.t1_seconds)

    def error_rates(self) -> Dict[str, float]:
        return {
            "cnot": self.cnot_error,
            "single_qubit": self.single_qubit_error,
            "rz": self.rz_error,
            "measurement": self.measurement_error,
            "idle": self.idle_error,
        }

    # -- simulation --------------------------------------------------------------
    def is_simulable(self) -> bool:
        return True

    def noise_model(self) -> NoiseModel:
        model = NoiseModel(name="nisq")
        depolarizing_fraction = 0.75 if self.include_thermal_relaxation else 1.0
        two_qubit = depolarizing_channel(self.cnot_error * depolarizing_fraction, 2)
        one_qubit = depolarizing_channel(self.single_qubit_error * depolarizing_fraction, 1)
        model.add_gate_error(two_qubit, ["cx", "cnot", "cz", "swap"])
        model.add_gate_error(one_qubit, ["h", "s", "sdg", "x", "y", "z", "sx", "rx", "ry"])
        if self.include_thermal_relaxation:
            relax_2q = thermal_relaxation_channel(
                self.t1_seconds, self.t2_seconds, self.two_qubit_gate_seconds)
            relax_1q = thermal_relaxation_channel(
                self.t1_seconds, self.t2_seconds, self.one_qubit_gate_seconds)
            for name in ("cx", "cnot", "cz", "swap"):
                model.add_gate_error(
                    _two_qubit_relaxation(relax_2q), [name])
            model.add_gate_error(relax_1q,
                                 ["h", "s", "sdg", "x", "y", "z", "sx", "rx", "ry"])
            model.add_idle_error(thermal_relaxation_channel(
                self.t1_seconds, self.t2_seconds, self.two_qubit_gate_seconds))
        # Rz gates are virtual on NISQ hardware: no channel attached.
        model.add_readout_error(self.measurement_error)
        return model


def _two_qubit_relaxation(single_qubit_channel):
    from ..simulators.noise import two_qubit_tensor_channel
    return two_qubit_tensor_channel(single_qubit_channel, single_qubit_channel)


@dataclass
class PQECRegime(ExecutionRegime):
    """Partial quantum error correction (the paper's proposal, Sec. 3).

    Clifford gates, measurements and memory are error-corrected at the d=11
    surface-code logical rates (≈1e-7 at p=1e-3); Rz(θ) rotations are executed
    by magic-state injection and keep a near-physical error rate of
    ``23·p/30 ≈ 0.767e-3`` per injected state, with E[g]=2 injected states
    consumed per logical rotation.
    """

    physical_error_rate: float = EFT_PHYSICAL_ERROR_RATE
    distance: int = EFT_CODE_DISTANCE
    consumption_success_probability: float = 0.5

    name = "pqec"

    # -- rates ------------------------------------------------------------------
    @property
    def logical_model(self) -> LogicalOperationErrorModel:
        return LogicalOperationErrorModel(self.distance, self.physical_error_rate)

    @property
    def cnot_error(self) -> float:
        return self.logical_model.cnot

    @property
    def single_qubit_error(self) -> float:
        return self.logical_model.single_qubit_clifford

    @property
    def measurement_error(self) -> float:
        return self.logical_model.measurement

    @property
    def memory_error(self) -> float:
        return self.logical_model.memory

    @property
    def rz_injection_error(self) -> float:
        """Error per injected magic state (23·p/30)."""
        return injection_error_rate(self.physical_error_rate)

    @property
    def expected_injections(self) -> float:
        return expected_consumptions_per_rotation(self.consumption_success_probability)

    @property
    def rz_error(self) -> float:
        """Error per logical rotation (E[g] injected states)."""
        return effective_rotation_error(self.physical_error_rate,
                                        self.consumption_success_probability)

    def error_rates(self) -> Dict[str, float]:
        return {
            "cnot": self.cnot_error,
            "single_qubit": self.single_qubit_error,
            "rz": self.rz_error,
            "rz_per_injection": self.rz_injection_error,
            "measurement": self.measurement_error,
            "idle": self.memory_error,
        }

    # -- simulation ---------------------------------------------------------------
    def is_simulable(self) -> bool:
        return True

    def noise_model(self) -> NoiseModel:
        model = NoiseModel(name="pqec")
        model.add_gate_error(depolarizing_channel(self.cnot_error, 2),
                             ["cx", "cnot", "cz", "swap"])
        model.add_gate_error(depolarizing_channel(self.single_qubit_error, 1),
                             ["h", "s", "sdg", "x", "y", "z", "sx"])
        # Injected rotations: biased Pauli error with the per-logical-rotation
        # magnitude (E[g] injections folded in), attached to rx/ry/rz alike —
        # after transpilation to Clifford+Rz only rz carries angles, but the
        # channels are registered for all three for robustness.
        injected = PauliChannel(self._scaled_injection_probabilities(),
                                name="rz_injection")
        model.add_gate_error(injected, ["rz", "rx", "ry"])
        model.add_idle_error(depolarizing_channel(self.memory_error, 1))
        model.add_readout_error(self.measurement_error)
        return model

    def _scaled_injection_probabilities(self) -> Dict[str, float]:
        per_injection = injection_error_pauli_probabilities(self.physical_error_rate)
        scale = self.expected_injections
        probabilities = {pauli: probability * scale
                         for pauli, probability in per_injection.items()
                         if pauli != "I"}
        probabilities["I"] = 1.0 - sum(probabilities.values())
        return probabilities


@dataclass
class QECConventionalRegime(ExecutionRegime):
    """Clifford+T with Gridsynth synthesis and distillation factories (Sec. 2.5).

    Evaluated analytically: every logical rotation becomes
    ``t_count_for_precision(ε)`` T gates, each carrying the factory's output
    error; the program stalls whenever the factory farm cannot keep up, and
    stalled patches accumulate memory errors.  The fidelity estimator
    (:mod:`repro.core.fidelity`) consumes the fields exposed here.
    """

    factory: FactoryConfig = field(default_factory=lambda: get_factory("15-to-1_11,5,5"))
    physical_error_rate: float = EFT_PHYSICAL_ERROR_RATE
    distance: int = EFT_CODE_DISTANCE
    # Gridsynth precision per rotation.  The default 1e-8 reflects that the
    # per-rotation angle error must stay well below the overall accuracy
    # target divided by the rotation count (Sec. 2.5 uses 1e-6 as an example;
    # chemistry-accuracy VQE needs tighter synthesis).
    synthesis_precision: float = 1e-8

    name = "qec_conventional"

    @property
    def logical_model(self) -> LogicalOperationErrorModel:
        return LogicalOperationErrorModel(self.distance, self.physical_error_rate)

    @property
    def t_state_error(self) -> float:
        return self.factory.output_error(self.physical_error_rate)

    def error_rates(self) -> Dict[str, float]:
        return {
            "cnot": self.logical_model.cnot,
            "single_qubit": self.logical_model.single_qubit_clifford,
            "t_state": self.t_state_error,
            "measurement": self.logical_model.measurement,
            "idle": self.logical_model.memory,
        }


@dataclass
class QECCultivationRegime(ExecutionRegime):
    """Clifford+T with magic state cultivation instead of distillation (Sec. 3.4)."""

    unit: CultivationUnit = field(default_factory=CultivationUnit)
    physical_error_rate: float = EFT_PHYSICAL_ERROR_RATE
    distance: int = EFT_CODE_DISTANCE
    synthesis_precision: float = 1e-8

    name = "qec_cultivation"

    @property
    def logical_model(self) -> LogicalOperationErrorModel:
        return LogicalOperationErrorModel(self.distance, self.physical_error_rate)

    @property
    def t_state_error(self) -> float:
        return self.unit.output_error(self.physical_error_rate)

    def error_rates(self) -> Dict[str, float]:
        return {
            "cnot": self.logical_model.cnot,
            "single_qubit": self.logical_model.single_qubit_clifford,
            "t_state": self.t_state_error,
            "measurement": self.logical_model.measurement,
            "idle": self.logical_model.memory,
        }
