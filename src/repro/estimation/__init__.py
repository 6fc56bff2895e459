"""Device-level resource estimation built on the compiler pipeline.

:mod:`repro.architecture.pipeline` answers "what does this one workload cost
under this one regime?"; this package answers the sizing questions the paper's
Figs. 4–6 and Sec. 3.3 ask across whole sweeps: which regime wins at which
program/device size, how much of the device each component consumes, and how
large a program a given device can host.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "resource_estimator": ["RegimeRecommendation", "ResourceEstimate",
                           "ResourceEstimator", "device_capacity_table",
                           "format_estimate_table"],
})
