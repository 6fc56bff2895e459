"""One value that says how a batch should run: the ``ExecutionPolicy``.

:class:`ExecutionPolicy` folds fan-out mode and worker count into one
frozen value, and it is the only per-call fan-out
argument: every entry point that fans work out (``execute``,
``evaluate_observable``, ``evaluate_sweep``, ``run_memory_sampling``, the
QEC memory experiments, ``BackendEnergyEvaluator``, service submit
payloads) takes ``policy=``.  :meth:`ExecutionPolicy.from_env` is
the single reader for the ``REPRO_WORKERS`` knob.

Resolution order (most specific wins):

1. the per-call ``policy=`` argument,
2. the executor's constructor policy,
3. the environment (:meth:`from_env`),
4. built-in defaults (inline, usable-CPU workers).

A batch fans out only when a layer says ``parallel="process"``; then it
runs on the shared fork pool across ``max_workers`` workers, where a
shard whose worker dies reruns in the caller
(:func:`~repro.execution.sharding.run_sharded`).  None of these can
change results: the determinism contract makes every value
bitwise independent of fan-out mode and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .errors import ExecutionError
from .sharding import _PARALLEL_MODES, WORKERS_ENV, env_number

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch fans out.  Every field defaults to ``None`` = "defer to
    the next layer" (executor default, then environment, then built-ins).

    ``parallel`` is a :class:`~repro.execution.sharding.ShardPlanner` mode,
    ``"none"`` (inline, the default) or ``"process"`` (the shared fork
    pool);
    ``max_workers`` the worker count (must be >= 1 — zero/negative is a
    ``ValueError``, not a silent clamp).  Process shards always run on the
    shared fork pool.
    """

    parallel: Optional[str] = None
    max_workers: Optional[int] = None

    def __post_init__(self):
        if self.parallel is not None and self.parallel not in _PARALLEL_MODES:
            raise ExecutionError(
                f"parallel must be one of {_PARALLEL_MODES}, "
                f"got {self.parallel!r}")
        if self.max_workers is not None and int(self.max_workers) < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers!r} (leave "
                f"it None to fall back to the {WORKERS_ENV} environment "
                f"override or the usable-CPU count)")

    @property
    def broker(self) -> None:
        """Always ``None``: process shards have one placement, the fork
        pool.  Kept read-only for ``perfbench/child.py``'s ``profile()``,
        which reports ``"local"`` from it; it is not a field, argument,
        wire key or environment variable."""
        return None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """The one environment reader: ``REPRO_WORKERS`` (worker count)."""
        max_workers = env_number(WORKERS_ENV)
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"{WORKERS_ENV} must be >= 1, got {max_workers!r} (unset it "
                f"to use the usable-CPU count)")
        return cls(max_workers=max_workers)

    # -- merging -----------------------------------------------------------

    def merged_over(self, base: Optional["ExecutionPolicy"]
                    ) -> "ExecutionPolicy":
        """This policy with ``base`` filling any ``None`` fields (per-call
        policy over executor default, executor default over environment)."""
        if base is None:
            return self
        return ExecutionPolicy(
            parallel=self.parallel if self.parallel is not None
            else base.parallel,
            max_workers=self.max_workers if self.max_workers is not None
            else base.max_workers)

    # -- wire form (service submit payloads) -------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-able wire form."""
        payload: Dict[str, Any] = {}
        if self.parallel is not None:
            payload["parallel"] = self.parallel
        if self.max_workers is not None:
            payload["max_workers"] = int(self.max_workers)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ExecutionPolicy":
        unknown = set(payload) - {"parallel", "max_workers"}
        if unknown:
            raise ExecutionError(
                f"unknown ExecutionPolicy payload keys: {sorted(unknown)}")
        max_workers = payload.get("max_workers")
        return cls(parallel=payload.get("parallel"),
                   max_workers=None if max_workers is None
                   else int(max_workers))
