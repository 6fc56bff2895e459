"""Lazy package exports (PEP 562).

A package ``__init__`` names each public object once, under the submodule
that defines it, and imports nothing::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "surface_code": ["SurfaceCodePatch", "logical_error_rate"],
    })

A name's submodule is imported the first time the name is read, and the
value is then cached on the package.  ``from package import *`` and
``dir(package)`` see every name.  Any other attribute is tried as a
submodule, so ``package.submodule`` works without importing it first.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, List[str]]
                 ) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` exporting
    ``table``, a ``{submodule: [names]}`` map."""
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"),
                            name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__, list(owners)
