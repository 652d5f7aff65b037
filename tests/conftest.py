"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import kernels
from repro.datagen import generate_quest, make_dataset, random_dataset

from tests.kernel_oracles import ORACLES


def pytest_collection_modifyitems(config, items):
    """Auto-mark every test touching the TCP backend with ``tcp`` so
    ``-m "not tcp"`` keeps the fast tier untouched by socket work: a
    ``backend`` parametrization of ``"tcp"`` is marked automatically,
    alongside anything marked ``tcp`` explicitly."""
    for item in items:
        params = getattr(item, "callspec", None)
        if params is not None and params.params.get("backend") == "tcp":
            item.add_marker(pytest.mark.tcp)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def kernel_oracles(monkeypatch):
    """Swap every ``repro.core.kernels`` kernel for its scalar oracle
    (``tests/kernel_oracles.py``) for the rest of the test.  Callers reach
    the kernels through the module attribute, so the swap covers a whole
    fit on the in-process engine."""
    for name, oracle in ORACLES.items():
        monkeypatch.setattr(kernels, name, oracle)
    return ORACLES


@pytest.fixture
def tiny_quest():
    """Small mixed-type Quest dataset (fast; exercises both attr kinds)."""
    return generate_quest(300, "F2", seed=7)


@pytest.fixture
def xor_dataset():
    """A dataset whose best tree is unambiguous: 2-D XOR on thresholds."""
    xs, ys, labels = [], [], []
    for x in (0.0, 1.0):
        for y in (0.0, 1.0):
            for _ in range(5):
                xs.append(x)
                ys.append(y)
                labels.append(int(x != y))
    return make_dataset(
        continuous={"x": xs, "y": ys}, labels=labels, n_classes=2
    )


def assert_trees_equal(a, b, context: str = "") -> None:
    """Readable failure message for tree-equality assertions."""
    if not a.structurally_equal(b):
        from repro.tree import to_text

        raise AssertionError(
            f"trees differ {context}\n--- A ---\n{to_text(a)}\n"
            f"--- B ---\n{to_text(b)}"
        )


#: stats fields measured on the host (they depend on the transport)
_MEASURED_STATS = ("transport_pickled_bytes",)


def _canonical(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def modeled_stats_digest(stats) -> str:
    """Digest of every modeled field of a ``SimulatedRunStats`` (floats by
    ``repr``, so exact); the measured transport counters are left out."""
    fields = tuple((f.name, _canonical(getattr(stats, f.name)))
                   for f in dataclasses.fields(stats)
                   if f.name not in _MEASURED_STATS)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]
