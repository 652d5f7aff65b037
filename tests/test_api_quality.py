"""API quality gates: docstrings everywhere, exports resolvable, no
accidental public surface drift."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.datagen",
    "repro.hashing",
    "repro.perfmodel",
    "repro.runtime",
    "repro.sort",
    "repro.tree",
]


def _all_modules() -> list[str]:
    names = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.append(f"{pkg_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", _all_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_every_export_resolves_and_is_documented(pkg_name):
    pkg = importlib.import_module(pkg_name)
    exports = getattr(pkg, "__all__", [])
    assert exports, f"{pkg_name} has no __all__"
    for name in exports:
        obj = getattr(pkg, name, None)
        assert obj is not None, f"{pkg_name}.__all__ lists missing {name!r}"
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert inspect.getdoc(obj), (
                f"{pkg_name}.{name} is public but undocumented"
            )


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_public_methods_documented(pkg_name):
    pkg = importlib.import_module(pkg_name)
    for name in getattr(pkg, "__all__", []):
        obj = getattr(pkg, name)
        if not inspect.isclass(obj):
            continue
        for attr_name, attr in vars(obj).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                assert inspect.getdoc(attr), (
                    f"{pkg_name}.{name}.{attr_name} is public but "
                    "undocumented"
                )


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_top_level_surface_is_stable():
    """The headline API: additions are fine (update this list); removals
    or renames are breaking and must be deliberate."""
    required = {
        "ScalParC", "InductionConfig", "FitResult",
        "paper_dataset", "generate_quest", "Dataset", "Schema",
        "induce_serial", "ParallelSPRINT", "SerialSPRINT",
        "DecisionTree", "accuracy", "to_text", "prune_pessimistic",
        "run_spmd", "CRAY_T3D", "MachineSpec", "SimulatedRunStats",
        "parallel_predict", "parallel_score", "feature_importances",
    }
    missing = required - set(repro.__all__)
    assert not missing, f"top-level API lost: {sorted(missing)}"


# ----------------------------------------------------------------------
# knob parity: config fields / env vars vs the two documentation tables
# ----------------------------------------------------------------------

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _table_names(path: pathlib.Path, heading: str) -> set[str]:
    """Backticked identifiers in the first column of the markdown table
    under ``heading`` (up to the next heading)."""
    section = path.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    section = re.split(r"\n#{1,6} ", section, maxsplit=1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, f"no table rows under {heading!r} in {path.name}"
    return {name for row in rows
            for name in re.findall(r"`(\w+)`", row.split("|")[1])}


def _env_names_in(*paths: pathlib.Path) -> set[str]:
    return {name for path in paths
            for name in _ENV_NAME.findall(path.read_text(encoding="utf-8"))}


def test_config_fields_match_readme_table():
    fields = {f.name for f in dataclasses.fields(repro.InductionConfig)}
    documented = _table_names(_ROOT / "README.md",
                              "### Induction configuration")
    assert fields - documented == set(), "fields missing from README's table"
    assert documented - fields == set(), "README documents unknown fields"


def test_env_vars_match_runtime_doc_table():
    in_src = _env_names_in(*(_ROOT / "src" / "repro").rglob("*.py"))
    runtime_md = _ROOT / "docs" / "runtime.md"
    documented = _table_names(runtime_md, "## Environment variables")
    assert in_src - documented == set(), "variables missing from the table"
    assert documented - in_src == set(), "table documents unknown variables"
    # prose outside the tables — any doc, not only this one — must not
    # name a variable src/ lacks either; REPRO_SCALE is the benchmarks'
    # knob (benchmarks/conftest.py)
    named = _env_names_in(*(_ROOT / "docs").glob("*.md"), _ROOT / "README.md")
    assert named - in_src - {"REPRO_SCALE"} == set()


def test_core_holds_one_kernel_family():
    """The fast kernels are the only ones in ``src/``: the scalar
    oracles live in ``tests/kernel_oracles.py``, nothing selects between
    families, and ``forced_kernel_mode`` survives only as a no-op that
    accepts ``"fast"``."""
    from repro.core import kernels

    core = _ROOT / "src" / "repro" / "core"
    twin = re.compile(r"def \w+_reference\(|\bkernel_mode\b|REPRO_KERNELS")
    found = {path.relative_to(core).as_posix() for path in core.rglob("*.py")
             if twin.search(path.read_text(encoding="utf-8"))}
    assert found == set()
    with kernels.forced_kernel_mode("fast") as entered:
        assert entered is None
    for mode in ("reference", "turbo"):
        with pytest.raises(ValueError, match=mode):
            with kernels.forced_kernel_mode(mode):
                pass


# ----------------------------------------------------------------------
# one level loop: who may build tree nodes
# ----------------------------------------------------------------------


def test_only_the_shared_loop_and_the_oracles_construct_split_nodes():
    """Every inducer, streaming included, grows its tree through
    ``core/frontier.py`` as per-node table rows — no node object at all —
    and their nodes come from ``tree/compile.py``; a second inline copy
    of node emission (and with it the termination / acceptance /
    empty-child rules) shows up here as a new module constructing split
    nodes."""
    src = _ROOT / "src" / "repro"
    builds = re.compile(r"\b(?:ContinuousSplit|CategoricalSplit)\(")
    found = {path.relative_to(src).as_posix() for path in src.rglob("*.py")
             if builds.search(path.read_text(encoding="utf-8"))}
    assert found == {
        "baselines/serial_reference.py",     # the oracle
        "tree/export.py",                    # deserialization
        "tree/compile.py",                   # the table's node view
    }


# ----------------------------------------------------------------------
# one world per job: the communicator carries what a caller uses
# ----------------------------------------------------------------------


def test_communicator_keeps_only_what_a_caller_uses():
    """ScalParC's collectives, the barrier, the unfused reduce the fusion
    tests compare against, and blocking point-to-point for the machine
    benchmark — no sub-communicators, no nonblocking requests, and no
    engine request kind left over for either."""
    from repro import runtime
    from repro.runtime import Communicator

    public = {name for name in dir(Communicator)
              if not name.startswith("_")
              and callable(getattr(Communicator, name))}
    assert public == {
        "barrier", "allgather", "allgatherv", "reduce", "allreduce",
        "exscan", "alltoall", "alltoallv", "fused", "send", "recv",
    }
    assert not {"Request", "ANY_TAG"} & set(runtime.__all__)
    assert not hasattr(runtime, "Request") and not hasattr(runtime, "ANY_TAG")
    engines = _ROOT / "src" / "repro" / "runtime" / "engines"
    leftovers = re.compile(r'"tryrecv"|"probe"|\bctx_id\b')
    found = {path.name for path in engines.glob("*.py")
             if leftovers.search(path.read_text(encoding="utf-8"))}
    assert found == set()
