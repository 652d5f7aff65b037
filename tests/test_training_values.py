"""What a training column may hold: NaN is refused, ±inf is a value.

A NaN compares false with everything, so it has no place in the
(value, record id) order every split threshold is drawn from: the
parallel presort and the serial oracle used to place it differently and
grow different trees without a word.  Every training entry point now
refuses it through one check, typed, naming the attribute and the count;
±inf order like any other value and fit to the oracle's tree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScalParC, induce_serial, paper_dataset
from repro.datagen import Dataset, NaNTrainingValueError
from repro.runtime import available_backends

BACKENDS = available_backends()


def _with(values: float, every: int = 7) -> Dataset:
    """F2 at 40 records with every ``every``-th value of every continuous
    column replaced by ``values`` (a scalar, or one per hit)."""
    data = paper_dataset(40, "F2", seed=1)
    columns = []
    for spec, col in zip(data.schema, data.columns):
        col = col.copy()
        if spec.is_continuous:
            col[::every] = values
        columns.append(col)
    return Dataset(data.schema, columns, data.labels, data.name)


def _first_continuous(data: Dataset) -> str:
    return next(spec.name for spec in data.schema if spec.is_continuous)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ["fit", "fit_stream"])
def test_nan_is_refused_typed_on_every_backend(backend, entry):
    data = _with(np.nan)
    clf = ScalParC(2, machine=None, backend=backend)
    with pytest.raises(NaNTrainingValueError) as excinfo:
        getattr(clf, entry)(data)
    message = str(excinfo.value)
    assert repr(_first_continuous(data)) in message
    assert "6 NaN" in message          # records 0, 7, …, 35
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("entry", ["fit", "fit_stream"])
def test_an_empty_training_set_is_refused_before_launch(backend, entry):
    """Refused by the facade as ``induce_serial`` refuses it, a plain
    ``ValueError``, not one ``SpmdWorkerError`` carrying p of them."""
    empty = paper_dataset(40, "F2", seed=1).take(np.arange(0))
    clf = ScalParC(2, machine=None, backend=backend)
    with pytest.raises(ValueError, match="empty dataset") as excinfo:
        getattr(clf, entry)(empty)
    assert type(excinfo.value) is ValueError
    with pytest.raises(ValueError, match="empty dataset"):
        induce_serial(empty)


def test_the_serial_oracle_refuses_nan_the_same_way():
    data = _with(np.nan)
    with pytest.raises(NaNTrainingValueError, match="6 NaN"):
        induce_serial(data)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 2])
def test_infinities_are_ordinary_values(backend, p):
    data = _with(np.array([np.inf, -np.inf] * 3))
    tree = ScalParC(p, machine=None, backend=backend).fit(data).tree
    assert tree.compiled().structure_digest \
        == induce_serial(data).compiled().structure_digest


def test_nan_at_prediction_time_is_not_refused():
    """The policy is about training: a record to classify may hold NaN
    (every ``threshold <= value`` test is false for it, so it goes left)."""
    tree = induce_serial(paper_dataset(40, "F2", seed=1))
    assert len(tree.predict(_with(np.nan))) == 40
