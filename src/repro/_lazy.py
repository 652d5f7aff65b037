"""Lazy package exports (PEP 562): a package lists its public names and
the submodule defining each, and a name's submodule is imported on first
attribute access — so importing one corner of the package (the serving
stack, say) does not import the rest."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``,
    resolving each name of ``exports`` (name → submodule, relative to
    the package) on first use.  A name equal to its submodule's is the
    submodule itself."""

    def __getattr__(name: str) -> Any:
        where = exports.get(name)
        if where is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = import_module(f".{where}", package)
        value = module if name == where else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
