"""Error-mitigation techniques that transition from NISQ to the EFT regime.

The paper's Sec. 7 argues that several NISQ-era mitigation techniques remain
useful alongside partial QEC.  This package implements the ones it names:

* **VarSaw** (:mod:`.varsaw`) — application-tailored measurement-error
  mitigation per commuting Pauli group (demonstrated in the paper's Fig. 15);
* **Dynamical decoupling** (:mod:`.dynamical_decoupling`) — idle-window pulse
  insertion plus VAQEM-style per-circuit sequence selection;
* **CAFQA** (:mod:`.cafqa`) — Clifford bootstrap initialization;
* **QISMET** (:mod:`.qismet`) — transient-error detection and retry.
"""

from .cafqa import (CAFQABootstrappedVQE, CAFQAInitialization,
                    cafqa_initialization, compare_initializations)
from .dynamical_decoupling import (DD_SEQUENCES, DDSelectionResult,
                                   DynamicalDecouplingSelector, dd_pulse_count,
                                   idle_windows, insert_dd_sequences,
                                   schedule_with_idle_drift, total_idle_slots)
from .qismet import QISMETController, QISMETStatistics, TransientNoiseInjector
from .varsaw import (MitigatedEnergyEvaluator, ReadoutCalibration,
                     VarSawMitigator)

__all__ = [
    "CAFQABootstrappedVQE",
    "CAFQAInitialization",
    "DD_SEQUENCES",
    "DDSelectionResult",
    "DynamicalDecouplingSelector",
    "MitigatedEnergyEvaluator",
    "QISMETController",
    "QISMETStatistics",
    "ReadoutCalibration",
    "TransientNoiseInjector",
    "VarSawMitigator",
    "cafqa_initialization",
    "compare_initializations",
    "dd_pulse_count",
    "idle_windows",
    "insert_dd_sequences",
    "schedule_with_idle_drift",
    "total_idle_slots",
]
