"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` names its public exports in one table,
relative module → the names it defines, and hands the table to
:func:`lazy_exports`.  A name's module is imported on first access and the
value is cached in the package namespace, so later reads are plain global
lookups.  Importing one module (``import repro.experiments.runner``) thus
runs that module's own imports and nothing a sibling re-exports; star
imports, ``dir()`` and attribute access to a subpackage (``repro.fleet``)
work as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package named ``package``.

    ``exports`` maps a module name relative to the package (``".stability"``,
    ``"..simulation.processes"``) to the public names it defines.  Any other
    non-dunder attribute that names a submodule is imported on access.
    """
    source: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
