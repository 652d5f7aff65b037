"""Level-synchronous checkpoint/restart for SPMD jobs.

ScalParC's induction loop is strictly level-synchronous (Figure 2), so
the end of every level is a natural consistent cut: attribute lists are
regrouped, the distributed node table is updated, and every rank holds
an identical partial tree.  This module turns that cut into a durable
snapshot a later job can resume from — possibly on a *different* number
of ranks.

Layout of a checkpoint directory (one per training run)::

    <dir>/
        level-0003/
            rank-000.ckpt     per-rank pickled payload (one per rank)
            rank-001.ckpt
            shared.ckpt       rank 0's replicated payload (partial tree,
                              pending frontier, run metadata)
            manifest.json     written last, atomically; the checkpoint
                              exists iff its manifest does
        level-0005/
            ...

Durability discipline: every file is written to a temporary name,
flushed, fsynced and atomically renamed into place; the manifest — which
carries a blake2b digest of every payload file — is sealed only after
every payload file of the cut is confirmed on disk.  A crash at any
point leaves either a complete previous checkpoint or a complete new
one, never a torn state.  ``latest_manifest`` picks the newest
*complete* cut.  The fsyncs themselves are pipelined one cadence window
behind the level barrier (see :class:`LevelCheckpointer`), so the cut
sealed at a crash may trail the newest started cut by up to two windows.

The save is collective (the digests are allgathered so rank 0 can seal
the manifest); the load is purely local.  Digests use the same blake2b
family as the collective trace's payload digests, so a checkpoint can
be cross-checked against a traced run's records.

``resolve_checkpoint`` gives the knob the same env-var parity as the
runtime's timeout/backend/trace settings: ``REPRO_SPMD_CHECKPOINT``
set to a directory enables checkpointing for any worker that accepts it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
import tempfile
import threading
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .envutil import env_str

__all__ = [
    "CHECKPOINT_ENV",
    "CheckpointConfig",
    "CheckpointError",
    "LevelCheckpointer",
    "LoadedCheckpoint",
    "latest_manifest",
    "rank_extras",
    "resolve_checkpoint",
    "restore_rank_extras",
]

#: environment override enabling checkpointing (value = directory)
CHECKPOINT_ENV = "REPRO_SPMD_CHECKPOINT"

#: manifest format version (bumped on incompatible layout changes)
MANIFEST_FORMAT = 1

_LEVEL_DIR_RE = re.compile(r"^level-(\d+)$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or validated."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpoint/restart policy of one SPMD job.

    Attributes
    ----------
    dir:
        Checkpoint directory of the run (created on first save).
    every:
        Snapshot cadence: a cut is taken after every ``every``-th level.
    keep:
        Completed cuts retained on disk; older ones are pruned after
        each successful save (0 = keep all).
    resume:
        ``False`` — fresh start.  ``True`` — resume from the newest
        complete manifest under ``dir``.  A string — resume from that
        manifest file (or a level directory containing one).
    max_restarts:
        Supervised-retry budget of the process engine: how many times a
        job killed by rank death or pipe timeout is respawned from the
        last manifest before the failure is surfaced.
    backoff_base:
        First retry delay in seconds; doubles per attempt (exponential).
    backoff_cap:
        Upper bound on any single retry delay.
    jitter:
        Relative jitter applied to each delay (0.25 = up to ±25%).
    elastic:
        Allow the retry supervisor to shrink the world (p → p′ = ⌈p/2⌉
        per shrink, never below ``min_ranks``) when respawning at the
        original size failed — graceful degradation instead of abort.
    min_ranks:
        Smallest world size elastic shrinking may reach.
    min_frontier_frac:
        Stop taking cuts once the active frontier holds fewer than this
        fraction of the training records.  Late levels are cheap to redo
        (little data remains in play) but expensive to snapshot (the
        partial tree keeps growing), so this bounds a crash's redo cost
        by roughly the fraction while capping per-cut overhead.  Set 0.0
        to checkpoint all the way to the bottom of the tree.
    """

    dir: str
    every: int = 1
    keep: int = 2
    resume: bool | str = False
    max_restarts: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    jitter: float = 0.25
    elastic: bool = True
    min_ranks: int = 1
    min_frontier_frac: float = 0.05

    def __post_init__(self):
        if not self.dir:
            raise ValueError("checkpoint dir must be a non-empty path")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.keep < 0:
            raise ValueError(f"keep must be >= 0, got {self.keep}")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must lie in [0, 1], got {self.jitter}")
        if self.min_ranks < 1:
            raise ValueError(f"min_ranks must be >= 1, got {self.min_ranks}")
        if not 0 <= self.min_frontier_frac <= 1:
            raise ValueError(
                f"min_frontier_frac must lie in [0, 1], "
                f"got {self.min_frontier_frac}"
            )

    def resume_source(self) -> str | None:
        """Manifest path to resume from, or None for a fresh start."""
        if self.resume is False:
            return None
        if self.resume is True:
            manifest = latest_manifest(self.dir)
            if manifest is None:
                raise CheckpointError(
                    f"resume requested but no complete checkpoint found "
                    f"under {self.dir!r}"
                )
            return manifest
        return str(self.resume)


def resolve_checkpoint(
    checkpoint: "CheckpointConfig | str | os.PathLike | None" = None,
) -> CheckpointConfig | None:
    """Resolve the effective checkpoint policy.

    Precedence mirrors the other runtime knobs: an explicit
    :class:`CheckpointConfig` wins; a bare path becomes a default-policy
    config on that directory; ``None`` defers to the
    ``REPRO_SPMD_CHECKPOINT`` environment variable (a directory), and
    finally to "checkpointing off" (returns ``None``).
    """
    if checkpoint is None:
        env = env_str(CHECKPOINT_ENV)
        return None if env is None else CheckpointConfig(dir=env)
    if isinstance(checkpoint, CheckpointConfig):
        return checkpoint
    if isinstance(checkpoint, (str, os.PathLike)):
        return CheckpointConfig(dir=os.fspath(checkpoint))
    raise TypeError(
        f"checkpoint must be a CheckpointConfig, a directory path or None, "
        f"got {type(checkpoint).__name__}"
    )


# ----------------------------------------------------------------------
# durable file primitives
# ----------------------------------------------------------------------


def _digest(blob: bytes) -> str:
    """blake2b content digest (same family as the collective trace's
    payload digests, long enough to make silent corruption detectable)."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return                          # not supported on this platform
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path: str, blob: bytes, sync_dir: bool = True) -> None:
    """Write ``blob`` to ``path`` durably: temp file in the same
    directory, flush + fsync, then atomic rename over the target.

    ``sync_dir=False`` skips the directory fsync — used for the payload
    files of a cut, whose renames are made durable in one batch by the
    manifest's directory fsync (the manifest is renamed *last* into the
    same directory, so its fsync covers every earlier rename; a payload
    caught mid-rename by a crash is detected on load by its digest).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".tmp.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if sync_dir:
        _fsync_dir(directory)


def _read_validated(path: str, expected_digest: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint file {path!r}: {exc}") \
            from exc
    actual = _digest(blob)
    if actual != expected_digest:
        raise CheckpointError(
            f"checkpoint file {path!r} is corrupt: digest {actual} does not "
            f"match the manifest's {expected_digest}"
        )
    return blob


def _level_dir_name(level: int) -> str:
    return f"level-{level:04d}"


def latest_manifest(directory: str | os.PathLike) -> str | None:
    """Path of the newest *complete* manifest under ``directory``.

    A cut counts only if its ``manifest.json`` exists and parses — a
    crash mid-save leaves payload files but no manifest, so torn cuts
    are skipped automatically.  Returns ``None`` when no complete cut
    exists (including when the directory itself is missing).
    """
    directory = os.fspath(directory)
    try:
        entries = os.listdir(directory)
    except OSError:
        return None
    levels: list[tuple[int, str]] = []
    for name in entries:
        match = _LEVEL_DIR_RE.match(name)
        if match:
            levels.append((int(match.group(1)), name))
    for _level, name in sorted(levels, reverse=True):
        manifest = os.path.join(directory, name, "manifest.json")
        try:
            with open(manifest, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        if data.get("format") == MANIFEST_FORMAT:
            return manifest
    return None


# ----------------------------------------------------------------------
# writing checkpoints
# ----------------------------------------------------------------------


@dataclass
class LevelCheckpointer:
    """Writes level-boundary checkpoints for one SPMD job.

    Usage, from inside a level-synchronous worker::

        ckpt = LevelCheckpointer(config)
        while pending:
            ... run level ...
            if ckpt.should_save(level):
                ckpt.save(comm, level + 1, rank_payload, shared_payload)
        ckpt.finalize(comm)

    ``save`` is collective but pipelined: every rank pickles its payload
    and allgathers its digest, while the actual file writes and fsyncs
    run on background threads overlapping the next level's compute
    (concurrent fsyncs serialize in the filesystem journal, so putting
    them on the level barrier would stall every rank behind the slowest
    disk flush).  Cut *k*'s manifest is sealed by rank 0 during the
    ``save`` of cut *k+1* — by then the allgather has proven that every
    rank joined its cut-*k* write, so a sealed manifest still only ever
    references durable payloads.  The price is recovery distance: a
    crash loses up to two cadence windows instead of one.  Call
    :meth:`finalize` (collective) after the last ``save`` to drain the
    pipeline and seal the final cut.

    ``level`` in the manifest is the *next level to execute* on resume.
    """

    config: CheckpointConfig
    #: manifest paths this job has sealed, newest last (rank 0 only)
    sealed: list = field(default_factory=list)
    #: in-flight write of this rank's newest payload file
    _write_thread: threading.Thread | None = field(
        default=None, repr=False, compare=False)
    _write_error: BaseException | None = field(
        default=None, repr=False, compare=False)
    #: rank 0: newest cut's seal args, deferred until the next allgather
    #: confirms every rank's payload write landed
    _pending_seal: tuple | None = field(
        default=None, repr=False, compare=False)
    _seal_thread: threading.Thread | None = field(
        default=None, repr=False, compare=False)
    _seal_error: BaseException | None = field(
        default=None, repr=False, compare=False)

    def should_save(self, level: int) -> bool:
        """True when the level that just finished ends a cadence window."""
        return (level + 1) % self.config.every == 0

    def save(self, comm, level: int, rank_payload: Any,
             shared_payload: Any | None = None,
             meta: dict | None = None) -> str:
        """Start one consistent cut; returns its (future) manifest path.

        ``rank_payload`` is this rank's picklable resume state;
        ``shared_payload`` is the replicated state (only rank 0's copy is
        written).  ``meta`` lands verbatim in the manifest.  The cut
        becomes visible to ``latest_manifest`` at the next ``save`` (or
        :meth:`finalize`), once its payloads are confirmed durable.
        """
        level_dir = os.path.join(self.config.dir, _level_dir_name(level))
        os.makedirs(level_dir, exist_ok=True)

        # Pickling is synchronous — it must capture the level-boundary
        # state before the caller mutates lists and tree — but the write
        # and fsync go to a background thread.  Joining the *previous*
        # cut's write before the allgather is what lets rank 0 seal that
        # cut afterwards: the allgather returning proves every rank's
        # previous payload is durable.
        rank_name = f"rank-{comm.rank:03d}.ckpt"
        blob = pickle.dumps(rank_payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._join_write()

        files: dict[str, str] = {}
        for part in comm.allgather({rank_name: _digest(blob)}):
            files.update(part)

        manifest_path = os.path.join(level_dir, "manifest.json")
        if comm.rank == 0:
            self._seal_previous()
            shared_blob = pickle.dumps(shared_payload,
                                       protocol=pickle.HIGHEST_PROTOCOL)
            files["shared.ckpt"] = _digest(shared_blob)
            manifest = {
                "format": MANIFEST_FORMAT,
                "level": int(level),
                "n_ranks": int(comm.size),
                "files": files,
                "meta": meta or {},
            }
            self._pending_seal = (
                level_dir, manifest_path, shared_blob,
                json.dumps(manifest, indent=2).encode("utf-8"), int(level),
            )
        self._start_write(os.path.join(level_dir, rank_name), blob)
        return manifest_path

    def finalize(self, comm) -> None:
        """Drain the checkpoint pipeline (collective; call once at exit).

        Joins this rank's in-flight payload write, confirms via an
        allgather that every rank's write landed, then has rank 0 seal
        the final pending cut and waits for the seal to hit disk.  Until
        this runs, the newest cut is not visible to ``latest_manifest``.
        """
        self._join_write()
        comm.allgather(True)
        if comm.rank == 0:
            self._seal_previous()
            self._join_seal()

    def _start_write(self, path: str, blob: bytes) -> None:
        def _run():
            try:
                _atomic_write(path, blob, sync_dir=False)
            except BaseException as exc:   # surfaced by the next join
                self._write_error = exc
        self._write_thread = threading.Thread(target=_run, name="ckpt-write")
        self._write_thread.start()

    def _join_write(self) -> None:
        thread = self._write_thread
        if thread is None:
            return
        thread.join()
        self._write_thread = None
        if self._write_error is not None:
            error, self._write_error = self._write_error, None
            raise CheckpointError(
                f"writing checkpoint payload failed: {error}"
            ) from error

    def _seal_previous(self) -> None:
        """Rank 0: seal the previous cut on a background thread.

        Only called after an allgather has confirmed every rank's
        payload write for that cut completed.
        """
        self._join_seal()
        pending, self._pending_seal = self._pending_seal, None
        if pending is None:
            return
        self._seal_thread = threading.Thread(
            target=self._seal, name="ckpt-seal", args=pending)
        self._seal_thread.start()

    def _seal(self, level_dir: str, manifest_path: str, shared_blob: bytes,
              manifest_blob: bytes, level: int) -> None:
        """Persist one cut's shared payload and manifest (seal thread)."""
        try:
            _atomic_write(os.path.join(level_dir, "shared.ckpt"),
                          shared_blob, sync_dir=False)
            _atomic_write(manifest_path, manifest_blob)
            self.sealed.append(manifest_path)
            self._prune(level)
        except BaseException as exc:   # surfaced by the next join
            self._seal_error = exc

    def _join_seal(self) -> None:
        thread = self._seal_thread
        if thread is None:
            return
        thread.join()
        self._seal_thread = None
        if self._seal_error is not None:
            error, self._seal_error = self._seal_error, None
            raise CheckpointError(
                f"sealing checkpoint cut failed: {error}"
            ) from error

    def _prune(self, newest_level: int) -> None:
        if self.config.keep <= 0:
            return
        try:
            entries = os.listdir(self.config.dir)
        except OSError:
            return
        levels = sorted(
            (int(m.group(1)), name)
            for name in entries
            if (m := _LEVEL_DIR_RE.match(name)) and int(m.group(1)) <= newest_level
        )
        for _level, name in levels[:-self.config.keep]:
            shutil.rmtree(os.path.join(self.config.dir, name),
                          ignore_errors=True)


# ----------------------------------------------------------------------
# reading checkpoints
# ----------------------------------------------------------------------


class LoadedCheckpoint:
    """One complete cut, opened for resume (purely local, no collectives).

    Every payload read is digest-validated against the manifest.
    """

    def __init__(self, manifest_path: str, manifest: dict):
        self.manifest_path = manifest_path
        self.directory = os.path.dirname(manifest_path)
        self.manifest = manifest
        self.level: int = int(manifest["level"])
        self.n_ranks: int = int(manifest["n_ranks"])
        self.meta: dict = manifest.get("meta", {})
        self._files: dict[str, str] = manifest["files"]

    @classmethod
    def open(cls, source: str | os.PathLike) -> "LoadedCheckpoint":
        """Open a manifest file, a level directory, or a run directory
        (the latter resolves to its newest complete cut)."""
        path = os.fspath(source)
        if os.path.isdir(path):
            direct = os.path.join(path, "manifest.json")
            if os.path.exists(direct):
                path = direct
            else:
                found = latest_manifest(path)
                if found is None:
                    raise CheckpointError(
                        f"no complete checkpoint found under {path!r}"
                    )
                path = found
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint manifest {path!r}: {exc}"
            ) from exc
        fmt = manifest.get("format")
        if fmt != MANIFEST_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {fmt!r} in {path!r} "
                f"(expected {MANIFEST_FORMAT})"
            )
        for key in ("level", "n_ranks", "files"):
            if key not in manifest:
                raise CheckpointError(
                    f"checkpoint manifest {path!r} is missing {key!r}"
                )
        return cls(path, manifest)

    def _load(self, name: str) -> Any:
        digest = self._files.get(name)
        if digest is None:
            raise CheckpointError(
                f"manifest {self.manifest_path!r} lists no file {name!r}"
            )
        blob = _read_validated(os.path.join(self.directory, name), digest)
        try:
            return pickle.loads(blob)
        except (AttributeError, ModuleNotFoundError,
                pickle.UnpicklingError) as exc:
            # a payload naming a class or module this version no longer
            # has: a cut from an older format
            raise CheckpointError(
                f"checkpoint file {name!r} of {self.manifest_path!r} predates "
                f"this version's classes and cannot be loaded: {exc}"
            ) from exc

    def rank_payload(self, rank: int) -> Any:
        """The per-rank payload written by old rank ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise CheckpointError(
                f"rank {rank} outside the checkpoint's world "
                f"[0, {self.n_ranks})"
            )
        return self._load(f"rank-{rank:03d}.ckpt")

    def all_rank_payloads(self) -> list:
        """Every old rank's payload, in old-rank order."""
        return [self.rank_payload(r) for r in range(self.n_ranks)]

    def shared_payload(self) -> Any:
        """The replicated payload (written by old rank 0)."""
        return self._load("shared.ckpt")

    def expect(self, *, algo: str, schema: str, config: str) -> dict:
        """The shared payload, after checking its compatibility header.

        A cut may only be resumed by the driver that wrote it (``algo``
        tag), on the same record schema and under the same tree-shaping
        settings (content digests; see
        :meth:`repro.core.config.InductionConfig.cut_header`).  Raises
        :class:`CheckpointError` naming the first field that differs.
        """
        shared = self.shared_payload()
        if shared.get("algo") != algo:
            raise CheckpointError(
                f"checkpoint {self.manifest_path!r} was written by another "
                f"driver (algo={shared.get('algo')!r}, expected {algo!r})"
            )
        if shared.get("schema") != schema:
            raise CheckpointError(
                f"checkpoint {self.manifest_path!r} holds a different "
                "record schema than this run's; resume needs the same data"
            )
        if shared.get("config") != config:
            raise CheckpointError(
                f"checkpoint {self.manifest_path!r} was written under "
                "different tree-shaping settings (config); resume with "
                "the original InductionConfig"
            )
        return shared


def rank_extras(comm) -> dict:
    """Best-effort per-rank runtime state (tracker + RNG) for a cut."""
    perf = comm.perf
    try:
        pickle.dumps(perf)
    except Exception:
        perf = None
    return {"perf": perf, "rng": np.random.get_state()}


def restore_rank_extras(comm, payload: dict) -> None:
    """Restore the tracker (a ledger: the prefix of rows up to the cut)
    and RNG saved by the same rank of an equal-size run (callers skip
    this on p → p′ resume)."""
    perf = payload.get("perf")
    if perf is not None and type(perf).__name__ == type(comm.perf).__name__:
        try:
            vars(comm.perf).update(vars(perf))
        except TypeError:
            pass
    rng = payload.get("rng")
    if rng is not None:
        np.random.set_state(rng)


def shrink_size(size: int, config: CheckpointConfig) -> int:
    """Next world size under elastic degradation (halving, floored)."""
    return max(config.min_ranks, size // 2)


def with_resume(config: CheckpointConfig,
                manifest_path: str) -> CheckpointConfig:
    """Copy of ``config`` pinned to resume from ``manifest_path``."""
    return replace(config, resume=manifest_path)
