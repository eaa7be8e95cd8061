"""Lazy package exports (PEP 562).

A package ``__init__`` that imported every public name eagerly would make
each process pay for modules its command never calls — a ``solve``
compiling the service layer, the stream sessions and the graph
generators.  Packages instead declare one export table and install the
``__getattr__``/``__dir__`` pair built here: a public name imports its
defining module on first access and is then cached in the package
namespace, so ``from repro import solve_mis``, ``repro.Graph`` and
``from repro.storage import *`` keep working unchanged.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps each defining module to the public names it
    provides.  A name outside the table that is not private resolves to
    the package's submodule of that name, imported on demand, as it did
    when the package imported its submodules eagerly.
    """

    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
