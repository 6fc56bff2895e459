"""Variational algorithms beyond ground-state VQE.

The paper focuses on VQE but states (Sec. 2.1) that its EFT-VQA analysis
"extends to other VQAs like QAOA and QML".  This package provides the QAOA
extension on top of the same regime / evaluator / optimizer infrastructure,
so the pQEC-versus-NISQ comparison can be reproduced for combinatorial
optimization as well:

* :mod:`repro.algorithms.qaoa` — the Quantum Approximate Optimization
  Algorithm on MaxCut instances (:mod:`repro.operators.graphs`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "qaoa": ["QAOA", "QAOAAnsatz", "QAOAResult"],
})
