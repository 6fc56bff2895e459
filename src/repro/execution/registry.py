"""Name-based lookup of execution backends.

The default registry exposes the three in-repo simulators as
``"statevector"``, ``"density_matrix"`` and ``"pauli_propagation"`` (with
short aliases).  Shared instances are created
lazily by :meth:`BackendRegistry.get`; :meth:`BackendRegistry.create` builds
a fresh, independently-seeded instance when isolation is needed.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from .adapters import (DensityMatrixBackend, PauliPropagationBackend,
                       StatevectorBackend)
from .backend import Backend, BackendCapabilities
from .errors import ExecutionError, UnknownBackendError


class BackendRegistry:
    """Maps backend names (and aliases) to factories and shared instances."""

    def __init__(self):
        self._factories: Dict[str, Callable[..., Backend]] = {}
        self._aliases: Dict[str, str] = {}
        self._instances: Dict[str, Backend] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------
    def register(self, name: str, factory: Callable[..., Backend],
                 aliases: tuple = (), overwrite: bool = False) -> None:
        """Register a backend factory under ``name`` (plus optional aliases)."""
        name = name.lower()
        with self._lock:
            if not overwrite and (name in self._factories
                                  or name in self._aliases):
                raise ExecutionError(f"backend {name!r} is already registered")
            self._factories[name] = factory
            self._instances.pop(name, None)
            for alias in aliases:
                self._aliases[alias.lower()] = name

    def canonical_name(self, name: str) -> str:
        """Resolve aliases; raises :class:`UnknownBackendError` if unknown."""
        lowered = name.lower()
        lowered = self._aliases.get(lowered, lowered)
        if lowered not in self._factories:
            raise UnknownBackendError(name, self._factories)
        return lowered

    def __contains__(self, name: str) -> bool:
        lowered = name.lower()
        return lowered in self._factories or lowered in self._aliases

    def names(self) -> List[str]:
        """Canonical backend names, sorted."""
        return sorted(self._factories)

    # -- instantiation -------------------------------------------------------
    def get(self, name: str) -> Backend:
        """The shared instance for ``name`` (created lazily)."""
        canonical = self.canonical_name(name)
        with self._lock:
            instance = self._instances.get(canonical)
            if instance is None:
                instance = self._factories[canonical]()
                self._instances[canonical] = instance
            return instance

    def create(self, name: str, **kwargs) -> Backend:
        """A fresh instance for ``name`` (e.g. with an explicit seed)."""
        return self._factories[self.canonical_name(name)](**kwargs)

    def capabilities(self) -> Dict[str, BackendCapabilities]:
        return {name: self.get(name).capabilities() for name in self.names()}


def _make_default_registry() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register("statevector", StatevectorBackend, aliases=("sv",))
    registry.register("density_matrix", DensityMatrixBackend, aliases=("dm",))
    registry.register("pauli_propagation", PauliPropagationBackend,
                      aliases=("pauli_prop", "pp"))
    return registry


#: The process-wide registry behind :func:`get_backend` and ``execute``.
DEFAULT_REGISTRY = _make_default_registry()


def get_backend(name: str, registry: Optional[BackendRegistry] = None) -> Backend:
    """Shared backend instance for ``name`` from the (default) registry."""
    return (registry or DEFAULT_REGISTRY).get(name)


def register_backend(name: str, factory: Callable[..., Backend],
                     aliases: tuple = (), overwrite: bool = False) -> None:
    """Register a custom backend factory in the default registry.

    ``factory`` is a zero-argument callable returning a
    :class:`~repro.execution.backend.Backend`; once registered, the name
    (and any aliases) routes through ``execute(tasks, backend=name)`` and
    the grouped-observable engine exactly like the built-in simulators.
    Example::

        register_backend("gpu", lambda: MyGPUBackend(), aliases=("cuda",))
        execute(tasks, backend="gpu")
    """
    DEFAULT_REGISTRY.register(name, factory, aliases=aliases,
                              overwrite=overwrite)


def available_backends() -> List[str]:
    """Canonical names of every backend in the default registry.

    The three built-ins are ``"statevector"``, ``"density_matrix"`` and
    ``"pauli_propagation"``; any name returned here is
    valid for ``execute(..., backend=name)``, task-level ``backend=`` pins
    and :func:`get_backend`.  Example::

        assert "statevector" in available_backends()
    """
    return DEFAULT_REGISTRY.names()
