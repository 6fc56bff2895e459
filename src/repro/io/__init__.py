"""Interchange formats: JSON serialization and report writing.

Downstream users of an EFT-VQA compiler need to move circuits and results in
and out of the toolchain — checkpointing circuits and optimized
parameters, and recording experiment tables.  This package provides the two
formats the examples and benchmark harness rely on:

* :mod:`repro.io.serialization` — JSON round-tripping of circuits, Pauli
  operators and result records;
* :mod:`repro.io.reports` — markdown experiment tables comparing paper and
  measured values.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "reports": ["ExperimentRecord", "ExperimentReport", "markdown_table"],
    "serialization": ["channel_from_dict", "channel_to_dict",
                      "circuit_from_dict", "circuit_to_dict", "load_json",
                      "noise_model_from_dict", "noise_model_to_dict",
                      "pauli_sum_from_dict", "pauli_sum_to_dict",
                      "result_to_dict", "save_json", "template_from_dict",
                      "template_to_dict"],
})
