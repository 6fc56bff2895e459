"""Shared pytest configuration: hypothesis profiles for the property suite,
and the session-wide fault injector of chaos passes.

Health-check suppression and deadline policy live here — centralized so
individual property tests never carry ad-hoc ``@settings`` overrides that
drift apart:

* ``dev`` (default): few examples, fast feedback while editing.  Deadlines
  are disabled because shared CI runners and first-call numpy warm-up make
  per-example wall-clock flaky.
* ``ci``: ≥200 examples per contract and ``derandomize=True`` so CI runs
  are reproducible (no fuzzing randomness in the pass/fail signal) while
  still exploring the strategy space deterministically.

Select with ``--hypothesis-profile=ci`` (hypothesis's built-in option).

With ``REPRO_FAULTS`` set (see ``chaos.py``), the injector it describes is
installed as the library's fault hook for the whole session, so ordinary
suites run while shards are killed and retried underneath them.
"""

import chaos

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is pinned in requirements
    settings = None

if settings is not None:
    _SUPPRESSED = [HealthCheck.too_slow, HealthCheck.data_too_large,
                   HealthCheck.filter_too_much]
    settings.register_profile(
        "dev",
        max_examples=25,
        deadline=None,
        suppress_health_check=_SUPPRESSED,
    )
    settings.register_profile(
        "ci",
        max_examples=200,
        deadline=None,
        derandomize=True,
        print_blob=True,
        suppress_health_check=_SUPPRESSED,
    )
    settings.load_profile("dev")

chaos.install_from_env()
