"""Hostile continuous values end to end: the parallel fit still grows
the serial oracle's tree.

F2 at 3 000 records with its continuous columns made awkward for the
(value, record id) order: ±inf, −0.0 mixed with +0.0 (equal values with
different bits), a column of one repeated value and a column of heavy
ties.  Every such run is a tie the Presort's local sorts and merges must
break by record id exactly as the oracle does, on every engine and
processor count (p = 5 leaves the last rank a short block, and the deep
levels are handed off).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScalParC, induce_serial, paper_dataset
from repro.datagen import Dataset
from repro.runtime import available_backends
from tests.conftest import assert_trees_equal

BACKENDS = [b for b in ("thread", "process", "tcp")
            if b in available_backends()]


def _hostile(n: int = 3000) -> Dataset:
    data = paper_dataset(n, "F2", seed=11)
    rng = np.random.default_rng(11)
    cols = {spec.name: col.copy() for spec, col in
            zip(data.schema, data.columns)}
    salary = cols["salary"]
    salary[::17], salary[::19] = np.inf, -np.inf
    salary[::23], salary[::29] = -0.0, 0.0
    commission = cols["commission"]          # ~57 % zeros in F2
    zero = commission == 0
    commission[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    commission[::31] = np.inf
    age = np.floor(cols["age"])              # ~61 values: heavy ties
    age[::37] = -np.inf
    cols["age"] = age
    cols["loan"] = np.full(n, 1e5)           # one value throughout
    return Dataset(data.schema, [cols[spec.name] for spec in data.schema],
                   data.labels, data.name)


DATA = _hostile()


@pytest.fixture(scope="module")
def oracle():
    return induce_serial(DATA)


def test_the_columns_are_hostile():
    salary, commission, age, loan = (
        DATA.columns[i] for i, spec in enumerate(DATA.schema)
        if spec.is_continuous)
    assert np.isinf(salary).sum() and np.isneginf(age).sum()
    for col in (salary, commission):
        zeros = col[col == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert len(np.unique(age)) < 70
    assert len(np.unique(loan)) == 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_hostile_values_grow_the_oracles_tree(oracle, backend, p):
    tree = ScalParC(p, machine=None, backend=backend).fit(DATA).tree
    assert_trees_equal(tree, oracle, f"p={p} {backend}")
    assert tree.compiled().structure_digest \
        == oracle.compiled().structure_digest
