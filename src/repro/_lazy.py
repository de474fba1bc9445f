"""Lazy package exports (PEP 562).

Every package init of :mod:`repro` names its public exports in one table,
``{defining module: (name, ...)}``, and hands it to :func:`attach`.  A name
is imported the first time it is read (``repro.BePI`` or ``from repro
import BePI``), so importing one module of the package (a serving worker
imports :mod:`repro.serve`) loads that module's own dependencies and
nothing else.  Each init repeats the table as ``if TYPE_CHECKING:`` imports
so linters and type checkers see the exports statically;
``tests/test_imports.py`` checks that the two agree.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def attach(
    package: str,
    exports: Dict[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of a lazily exporting package.

    ``exports`` maps each defining module to the names it exports;
    ``submodules`` names child modules exported as themselves.  A resolved
    name is stored on the package, so later reads skip ``__getattr__``.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    public = [*owners, *submodules]

    def __getattr__(name: str) -> object:
        if name in owners:
            value = getattr(importlib.import_module(owners[name]), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
