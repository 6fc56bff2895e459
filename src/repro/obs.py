"""Counters that cross process boundaries the same way everywhere.

This is a dependency-free leaf module (stdlib only, no ``repro`` import):
every layer that counts work imports it without creating a cycle.  It holds
the one counter mechanism of the repository, in two halves that share one
lock:

* **Process-wide named counters** — dotted names
  (``"simulators.program_cache.hits"``, ``"qec.decode.shots_decoded"`` …)
  moved by :func:`add` and :func:`absorb`, read and reset by name prefix
  with :func:`read` and :func:`reset`.  The public stats functions
  (``program_cache_counters()``, ``batch_decode_stats()``,
  ``sampling_stats()`` …) are views over them.
* **Instance counters** — integer attributes of long-lived objects
  (``Backend.invocations``, decoder diagnostics).  A class lists them in
  its ``obs_counters`` class attribute; a listed attribute that holds
  another object declaring counters is walked as a nested child (a
  predecoder's ``_backing``, a lookup decoder's ``_fallback``).  They move
  through :func:`bump`, under the same lock, so concurrent threads never
  lose an increment and the objects stay picklable.

A process shard carries its counters home as two :func:`delta` movements —
of :func:`read` and of :func:`instance_counters` of the shard's head
objects, taken where it ran — which the dispatcher replays with
:func:`absorb` and :func:`absorb_instances`.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping

_lock = threading.Lock()
_counters: Dict[str, int] = {}


def add(name: str, amount: int = 1) -> None:
    """Move the process-wide counter ``name`` by ``amount``."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + amount


def absorb(movement: Mapping[str, int]) -> None:
    """Move several process-wide counters at once (a shard's movement)."""
    with _lock:
        for name, amount in movement.items():
            _counters[name] = _counters.get(name, 0) + amount


def read(prefix: str = "") -> Dict[str, int]:
    """The process-wide counters whose names start with ``prefix``, keyed
    by the rest of the name (never-moved counters are absent)."""
    with _lock:
        return {name[len(prefix):]: value
                for name, value in _counters.items()
                if name.startswith(prefix)}


def reset(prefix: str = "") -> None:
    """Zero (drop) the process-wide counters whose names start with
    ``prefix``."""
    with _lock:
        for name in [name for name in _counters if name.startswith(prefix)]:
            del _counters[name]


def delta(before: Mapping[str, int],
          after: Mapping[str, int]) -> Dict[str, int]:
    """Per-name movement between two snapshots (moved names only)."""
    return {name: value - before.get(name, 0)
            for name, value in after.items() if value != before.get(name, 0)}


def bump(obj, attr: str, amount: int = 1) -> None:
    """Move the instance counter ``obj.attr`` by ``amount``."""
    with _lock:
        setattr(obj, attr, getattr(obj, attr) + amount)


def _walk(obj, prefix: str, out: Dict[str, int], seen: set) -> None:
    if isinstance(obj, tuple):
        for index, item in enumerate(obj):
            _walk(item, f"{prefix}{index}.", out, seen)
        return
    names = getattr(type(obj), "obs_counters", ())
    if not names or id(obj) in seen:
        return
    seen.add(id(obj))
    for name in names:
        value = getattr(obj, name, None)
        if isinstance(value, int):
            out[prefix + name] = value
        elif value is not None:
            _walk(value, prefix + name + ".", out, seen)


def instance_counters(obj) -> Dict[str, int]:
    """Every instance counter of ``obj`` and its nested children, keyed by
    dotted attribute path (``"fallback_count"``,
    ``"_backing.predecoded_defects"``); a tuple is walked per position
    (``"1._backing.fallback_count"``)."""
    out: Dict[str, int] = {}
    with _lock:
        _walk(obj, "", out, set())
    return out


def absorb_instances(obj, movement: Mapping[str, int]) -> None:
    """Replay a movement of :func:`instance_counters` (taken on a copy of
    ``obj``, e.g. in a worker process) onto ``obj``."""
    with _lock:
        for path, amount in movement.items():
            *parents, attr = path.split(".")
            target = obj
            for part in parents:
                target = (target[int(part)] if isinstance(target, tuple)
                          else getattr(target, part))
            setattr(target, attr, getattr(target, attr) + amount)
