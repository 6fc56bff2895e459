"""One value that says how a batch should run: the ``ExecutionPolicy``.

:class:`ExecutionPolicy` folds fan-out mode, worker count and retry budget
into one frozen value, and it is the only per-call fan-out
argument: every entry point that fans work out (``execute``,
``evaluate_observable``, ``evaluate_sweep``, ``run_memory_sampling``, the
QEC memory experiments, ``BackendEnergyEvaluator``, service submit
payloads) takes ``policy=``.  :meth:`ExecutionPolicy.from_env` is
the single reader for the ``REPRO_WORKERS`` / ``REPRO_SHARD_*`` knobs.

Resolution order (most specific wins):

1. the per-call ``policy=`` argument,
2. the executor's constructor policy,
3. the environment (:meth:`from_env`),
4. built-in defaults (inline, usable-CPU workers, env retry budget).

A batch fans out only when a layer says ``parallel="process"``; then it
runs on the shared fork pool across ``max_workers`` workers.  None of
these can change results: the determinism contract makes every value
bitwise independent of fan-out mode and worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .errors import ExecutionError
from .sharding import (_PARALLEL_MODES, SHARD_BACKOFF_ENV, SHARD_RETRIES_ENV,
                       SHARD_TIMEOUT_ENV, WORKERS_ENV, ShardRetryPolicy,
                       env_number)

__all__ = ["ExecutionPolicy"]

_RETRY_FIELDS = ("max_retries", "backoff_base", "backoff_cap", "timeout")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch fans out.  Every field defaults to ``None`` = "defer to
    the next layer" (executor default, then environment, then built-ins).

    ``parallel`` is a :class:`~repro.execution.sharding.ShardPlanner` mode,
    ``"none"`` (inline, the default) or ``"process"`` (the shared fork
    pool);
    ``max_workers`` the worker count (must be >= 1 — zero/negative is a
    ``ValueError``, not a silent clamp); ``retry`` overrides the
    supervised retry budget.  Process shards always run on the shared fork
    pool.
    """

    parallel: Optional[str] = None
    max_workers: Optional[int] = None
    retry: Optional[ShardRetryPolicy] = None

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
        if self.retry is not None \
                and not isinstance(self.retry, ShardRetryPolicy):
            raise ExecutionError(
                f"retry must be a ShardRetryPolicy, got "
                f"{type(self.retry).__name__}")

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
        """The one environment reader: ``REPRO_WORKERS`` (worker count)
        and the ``REPRO_SHARD_RETRIES`` / ``REPRO_SHARD_TIMEOUT`` /
        ``REPRO_SHARD_BACKOFF`` retry knobs, folded into one policy."""
        max_workers = env_number(WORKERS_ENV)
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"{WORKERS_ENV} must be >= 1, got {max_workers!r} (unset it "
                f"to use the usable-CPU count)")
        retry = None
        if any(os.environ.get(name, "").strip()
               for name in (SHARD_RETRIES_ENV, SHARD_TIMEOUT_ENV,
                            SHARD_BACKOFF_ENV)):
            retry = ShardRetryPolicy.from_env()
        return cls(max_workers=max_workers, retry=retry)

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
            else base.max_workers,
            retry=self.retry if self.retry is not None else base.retry)

    # -- wire form (service submit payloads) -------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-able wire form."""
        payload: Dict[str, Any] = {}
        if self.parallel is not None:
            payload["parallel"] = self.parallel
        if self.max_workers is not None:
            payload["max_workers"] = int(self.max_workers)
        if self.retry is not None:
            payload["retry"] = {name: getattr(self.retry, name)
                                for name in _RETRY_FIELDS}
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ExecutionPolicy":
        unknown = set(payload) - {"parallel", "max_workers", "retry"}
        if unknown:
            raise ExecutionError(
                f"unknown ExecutionPolicy payload keys: {sorted(unknown)}")
        retry = payload.get("retry")
        if retry is not None:
            extra = set(retry) - set(_RETRY_FIELDS)
            if extra:
                raise ExecutionError(
                    f"unknown retry payload keys: {sorted(extra)}")
            retry = ShardRetryPolicy(**retry)
        max_workers = payload.get("max_workers")
        return cls(parallel=payload.get("parallel"),
                   max_workers=None if max_workers is None
                   else int(max_workers),
                   retry=retry)
