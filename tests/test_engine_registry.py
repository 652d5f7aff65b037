"""The backend registry: the engine ``docs/runtime.md`` shows under
"Registering a backend" is run as written, through ``run_spmd``, with
tracing off and on; a taken name needs ``replace=True``.

Every registration happens on a copy of the registry under
``monkeypatch``, so no test engine leaks into the suites parametrized
over ``available_backends()``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    TraceCollector,
    available_backends,
    reduction,
    run_spmd,
)
from repro.runtime.engines import base

DOC = Path(__file__).resolve().parents[1] / "docs" / "runtime.md"


@pytest.fixture
def registry(monkeypatch):
    """A private copy of the registry for one test."""
    monkeypatch.setattr(base, "_FACTORIES", dict(base._FACTORIES))
    monkeypatch.setattr(base, "_ENGINES", dict(base._ENGINES))


def _doc_engine() -> type:
    """Execute the doc's example block; return the engine class it
    registers."""
    section = DOC.read_text().split("### Registering a backend", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(DOC), "exec"), namespace)
    return namespace["MyEngine"]


def _sum_worker(comm):
    return int(comm.allreduce(np.int64(comm.rank), reduction.SUM))


def test_the_documented_engine_runs(registry):
    engine = _doc_engine()
    assert available_backends()[-1] == "mine"
    assert run_spmd(3, _sum_worker, backend="mine", trace=False) == [3] * 3
    assert engine.jobs == 1


def test_the_documented_engine_runs_traced(registry):
    engine = _doc_engine()
    collector = TraceCollector()
    assert run_spmd(3, _sum_worker, backend="mine",
                    trace=collector) == [3] * 3
    assert engine.jobs == 1
    collector.check().raise_if_failed()
    assert collector.backend == "thread"     # the engine it delegates to
    assert all(len(collector.events_of(r)) == 1 for r in range(3))


class _Echo(base.SpmdEngine):
    name = "echo"

    def __init__(self, answer):
        self.answer = answer

    def run(self, size, worker, args=(), kwargs=None, *, observer=None,
            rank_perf=None, timeout=None, trace=None, checkpoint=None):
        return [self.answer] * size


def test_a_taken_name_needs_replace(registry):
    base.register_engine("echo", lambda: _Echo(1))
    with pytest.raises(ValueError, match="'echo' is already registered"):
        base.register_engine("echo", lambda: _Echo(2))
    assert run_spmd(2, _sum_worker, backend="echo") == [1, 1]
    base.register_engine("echo", lambda: _Echo(2), replace=True)
    assert run_spmd(2, _sum_worker, backend="echo") == [2, 2]
    assert available_backends().count("echo") == 1
