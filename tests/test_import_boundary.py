"""The serving process loads only what serves.

``import repro.serving`` and ``python -m repro serve`` must not import
the inducers, the SPMD engines, the collective tracer, the machine
model or the analysis: the package ``__init__``s resolve their public
names lazily (PEP 562), and the CLI imports per subcommand.  Checked in
a fresh interpreter, since this one has imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: what a serving process must never import (each with its submodules)
NOT_SERVING = ("repro.core", "repro.baselines", "repro.analysis",
               "repro.perfmodel", "repro.runtime.engines",
               "repro.runtime.tracing")

#: the packages whose ``__init__`` resolves names on first use
LAZY_PACKAGES = ("repro", "repro.datagen", "repro.runtime", "repro.tree")

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _modules_after(script: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``script`` ran."""
    code = (f"{script}\nimport json, sys\n"
            f"print('MODULES ' + json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1].removeprefix("MODULES "))


def _heavy(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in NOT_SERVING)]


def test_importing_the_serving_stack_loads_nothing_else():
    modules = _modules_after("import repro.serving")
    assert "repro.serving.registry" in modules
    assert _heavy(modules) == []


def test_serve_command_loads_nothing_else():
    modules = _modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'serve', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code")
    assert "repro.cli" in modules
    assert _heavy(modules) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(package, "no_such_name")


def test_from_import_of_every_export_in_a_fresh_interpreter():
    """Each lazy package's whole ``__all__`` resolves by ``from … import``
    in a fresh process (no import order a test session set up first)."""
    script = "\n".join(
        f"from {name} import "
        + ", ".join(importlib.import_module(name).__all__)
        for name in LAZY_PACKAGES)
    assert "repro.core" in _modules_after(script)    # names did resolve
