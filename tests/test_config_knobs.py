"""One place per knob.

A knob that shapes the tree is an :class:`InductionConfig` field (plus a
CLI flag) and nothing else: the environment variables older versions
read for the split mode and the streaming schedule are inert.  The knobs
that never shape the tree live with the run — ``backend=`` and
``fit(checkpoint=)``, with ``REPRO_SPMD_BACKEND`` and
``REPRO_SPMD_CHECKPOINT`` — and the node-table update is always blocked,
as in the paper.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import re

import pytest

from repro.baselines import induce_serial
from repro.core import InductionConfig, ScalParC
from repro.datagen import paper_dataset
from repro.runtime import available_backends
from tests.test_api_quality import _table_names
from tests.test_checkpoint import PINNED_FINGERPRINTS

_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: variables earlier versions read as fallbacks of tree-shaping fields,
#: each set to a value that changed the tree there
STRAY = {
    "REPRO_SPMD_SPLIT_MODE": "voted",
    "REPRO_STREAM_SKETCH_SIZE": "8",
    "REPRO_STREAM_CHUNK_RECORDS": "777",
    "REPRO_STREAM_GROW_RECORDS": "500",
    "REPRO_STREAM_REOPEN_DELTA": "0.1",
}

#: the fields that shape the induced tree
TREE_SHAPING = {
    "max_depth", "min_split_records", "min_improvement", "criterion",
    "categorical_binary_subsets", "subset_exhaustive_limit",
    "split_mode", "n_bins", "vote_top_k", "stream_chunk_records",
    "sketch_size", "stream_grow_records", "stream_reopen_delta",
}

BACKENDS = [b for b in ("thread", "process") if b in available_backends()]


def test_min_improvement_nan_is_refused():
    """No gain compares with NaN: the serial reference's ``gain < nan``
    would accept every split while the frontier's ``gain >= nan``
    rejects every one (123 nodes against 1 on F2, 300 records, p = 2).
    The config refuses it instead."""
    with pytest.raises(ValueError, match="min_improvement"):
        InductionConfig(min_improvement=math.nan)
    with pytest.raises(ValueError, match="min_improvement"):
        InductionConfig(min_improvement=-1e-12)
    ds = paper_dataset(300, "F2", seed=1)
    cfg = InductionConfig(min_improvement=math.inf)    # nothing clears it
    assert induce_serial(ds, cfg).structurally_equal(
        ScalParC(2, cfg, machine=None).fit(ds).tree)


def _fits(backend: str) -> list:
    ds = paper_dataset(2_000, "F7", seed=3)
    clf = ScalParC(2, machine=None, backend=backend)
    return [clf.fit(ds).tree, clf.fit_stream(ds).tree]


@pytest.mark.parametrize("backend", BACKENDS)
def test_stray_env_variables_leave_fits_unchanged(backend, monkeypatch):
    """Batch and streamed fits with every retired variable set equal the
    fits with them unset, on an in-process and a forked engine (the
    children inherit the environment)."""
    for name in STRAY:
        monkeypatch.delenv(name, raising=False)
    unset = _fits(backend)
    for name, value in STRAY.items():
        monkeypatch.setenv(name, value)
    for clean, stray in zip(unset, _fits(backend)):
        assert stray.structurally_equal(clean)
    assert unset[0].structurally_equal(
        induce_serial(paper_dataset(2_000, "F7", seed=3)))


@pytest.mark.parametrize("streaming, knobs, digest", PINNED_FINGERPRINTS)
def test_stray_env_variables_leave_fingerprint_pinned(streaming, knobs,
                                                      digest, monkeypatch):
    for name, value in STRAY.items():
        monkeypatch.setenv(name, value)
    assert InductionConfig(**knobs).fingerprint(streaming) == digest


def test_harness_seams_still_construct(monkeypatch):
    """``benchmarks/e2e`` passes ``None`` for the streaming knobs of a
    batch workload, strips them for its batch oracle, switches to voted
    with ``replace``, and reads the three kept ``resolved_*`` methods."""
    for name in STRAY:
        monkeypatch.delenv(name, raising=False)
    cfg = InductionConfig(max_depth=12, stream_chunk_records=None,
                          sketch_size=None)
    assert cfg == InductionConfig(max_depth=12)
    assert (cfg.resolved_split_mode(), cfg.resolved_stream_chunk_records(),
            cfg.resolved_sketch_size()) == ("exact", 4096, 256)
    stream = InductionConfig(max_depth=8, stream_chunk_records=3_000,
                             sketch_size=128)
    assert (stream.resolved_stream_chunk_records(),
            stream.resolved_sketch_size()) == (3_000, 128)
    oracle = dataclasses.replace(stream, stream_chunk_records=None,
                                 sketch_size=None)
    assert oracle == InductionConfig(max_depth=8)
    voted = dataclasses.replace(cfg, split_mode="voted")
    assert voted.resolved_split_mode() == "voted"
    assert voted.fingerprint() != cfg.fingerprint()


def test_config_seam_holds_only_tree_shaping_fields():
    """Run-time knobs left the config: ``max_update_block`` (the update
    round size, kept so small inputs can drive many rounds) is the one
    field that does not shape the tree."""
    fields = {f.name for f in dataclasses.fields(InductionConfig)}
    assert fields == TREE_SHAPING | {"max_update_block"}
    for gone in ({"backend": "thread"}, {"checkpoint": "ckpt"},
                 {"blocked_updates": False}):
        with pytest.raises(TypeError, match=next(iter(gone))):
            InductionConfig(**gone)


def test_env_literals_in_src_match_runtime_table():
    """Every ``"REPRO_*"`` string literal under ``src/`` is a row of
    ``docs/runtime.md``'s variable table, and every row is one."""
    literal = re.compile(r'"(REPRO_[A-Z_]+)"')
    in_src = {name for path in (_ROOT / "src").rglob("*.py")
              for name in literal.findall(path.read_text(encoding="utf-8"))}
    table = _table_names(_ROOT / "docs" / "runtime.md",
                         "## Environment variables")
    assert in_src == table
    assert len(in_src) == 10
