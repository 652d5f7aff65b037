"""Versioned model registry with atomic hot-swap.

Fitted trees become *published versions* — immutable, digest-sealed
artifact directories a server can load, validate and swap between
without dropping requests.  The durability discipline is the checkpoint
module's (`repro.runtime.checkpoint`): every file is written via
temp-file + fsync + atomic rename, every payload is named in a
``manifest.json`` carrying its blake2b digest, and the manifest is
written last — a torn publish leaves no manifest and is invisible.

Layout::

    <root>/
        v0001/
            model.npz         the tree's table (format 2)
            manifest.json     {format, version, files: {name: digest},
                               compiled_digest, meta}; sealed last
        v0002/
            ...
        CURRENT               {"version": N} — atomically replaced;
                              which version servers should answer with

Model formats (the manifest's ``format``):

======  ============================  =====================================
format  payload                       written / read
======  ============================  =====================================
1       ``model.json``: the nested    read only (``repro.tree.from_dict``)
        dict of ``repro.tree.to_dict``
2       ``model.npz``: the schema and written by :meth:`publish`, read
        the table's primary columns,  (``repro.tree.from_npz``)
        uncompressed ``np.savez``
======  ============================  =====================================

Both readers end in one column check (``repro.tree.export.check_columns``)
and rebuild the derived arrays from the primary columns, so a loaded
table is always self-consistent; the recompiled structure digest must
then match the manifest's ``compiled_digest``.

Hot-swap semantics: :meth:`ModelRegistry.activate` first loads and
digest-validates the target version, then swaps the in-process current
reference (one assignment under a lock — a reader sees the old model or
the new one, never a mixture) and finally replaces the on-disk
``CURRENT`` pointer so other processes converge on the same version.
Superseded versions *drain*: every reader takes a lease
(:meth:`ServableModel.lease`) for the duration of one batch, and
:meth:`ModelRegistry.drain` waits until a version's outstanding leases
reach zero.

Corrupt or partial artifacts (bad digest, missing file, torn JSON,
malformed manifest or columns, unknown format) are rejected with typed
errors — :class:`ModelArtifactError` or :class:`ModelNotFoundError`,
both :class:`RegistryError`\\ s — never served.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field

from ..tree.compile import CompiledTree
from ..tree.export import from_dict, from_npz, to_npz
from ..tree.model import DecisionTree
# The registry deliberately shares the checkpoint module's durable-file
# primitives so model artifacts and training checkpoints obey one
# discipline (atomic rename, blake2b digests, manifest-sealed-last).
from ..runtime.checkpoint import _atomic_write, _digest

__all__ = [
    "CURRENT_POINTER",
    "MODEL_FORMAT",
    "ModelArtifactError",
    "ModelNotFoundError",
    "ModelRegistry",
    "ModelVersion",
    "RegistryError",
    "ServableModel",
]

#: model-manifest format :meth:`ModelRegistry.publish` writes
MODEL_FORMAT = 2

#: format → (payload file name, payload bytes → tree); every format
#: listed here still loads
_PAYLOADS = {
    1: ("model.json", lambda blob: from_dict(json.loads(blob))),
    2: ("model.npz", from_npz),
}

#: name of the atomic current-version pointer file
CURRENT_POINTER = "CURRENT"

_VERSION_DIR_RE = re.compile(r"^v(\d{4,})$")


class RegistryError(RuntimeError):
    """A registry operation failed."""


class ModelNotFoundError(RegistryError):
    """The requested model version does not exist (or none is active)."""


class ModelArtifactError(RegistryError):
    """A model artifact is corrupt, partial, or of an unsupported format."""


def _version_dir_name(version: int) -> str:
    return f"v{version:04d}"


@dataclass(frozen=True)
class ModelVersion:
    """Metadata of one published version (the manifest, decoded)."""

    version: int
    path: str                    # artifact directory
    model_digest: str            # blake2b of the payload file
    compiled_digest: str         # CompiledTree.structure_digest
    meta: dict = field(default_factory=dict)


class ServableModel:
    """One loaded, validated version: tree + compiled kernel + leases.

    Readers wrap each use in :meth:`lease` so a superseded version can
    drain gracefully — the registry swap is instantaneous, but the old
    version stays valid for requests already holding it.
    """

    def __init__(self, info: ModelVersion, tree: DecisionTree,
                 compiled: CompiledTree):
        self.info = info
        self.tree = tree
        self.compiled = compiled
        self._leases = 0
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        return self.info.version

    @property
    def digest(self) -> str:
        return self.info.compiled_digest

    @property
    def leases(self) -> int:
        """Outstanding leases (in-flight batches using this version)."""
        with self._lock:
            return self._leases

    def acquire(self) -> "ServableModel":
        with self._lock:
            self._leases += 1
        return self

    def release(self) -> None:
        with self._lock:
            if self._leases <= 0:
                raise RegistryError("release() without a matching acquire()")
            self._leases -= 1

    def lease(self) -> "_Lease":
        """Context manager: hold this version for the duration of a use."""
        return _Lease(self)


class _Lease:
    __slots__ = ("_model",)

    def __init__(self, model: ServableModel):
        self._model = model

    def __enter__(self) -> ServableModel:
        return self._model.acquire()

    def __exit__(self, *exc) -> None:
        self._model.release()


class ModelRegistry:
    """Versioned models under one root directory (see module docstring)."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._current: ServableModel | None = None
        self._current_pointer_mtime: float | None = None

    # -- publishing ----------------------------------------------------------

    def publish(self, tree: DecisionTree, *, meta: dict | None = None,
                activate: bool = False) -> ModelVersion:
        """Seal ``tree`` as the next version; optionally activate it.

        The model payload is written first, the manifest (naming the
        payload digest and the compiled structure digest) last — a crash
        in between leaves an invisible, manifest-less directory that
        :meth:`versions` skips.
        """
        compiled = tree.compiled()
        with self._lock:
            version = (max(self.versions(), default=0)) + 1
            vdir = os.path.join(self.root, _version_dir_name(version))
            os.makedirs(vdir, exist_ok=True)
            name = _PAYLOADS[MODEL_FORMAT][0]
            blob = to_npz(tree)
            _atomic_write(os.path.join(vdir, name), blob, sync_dir=False)
            manifest = {
                "format": MODEL_FORMAT,
                "version": version,
                "files": {name: _digest(blob)},
                "compiled_digest": compiled.structure_digest,
                "meta": meta or {},
            }
            _atomic_write(os.path.join(vdir, "manifest.json"),
                          json.dumps(manifest, indent=2).encode("utf-8"))
        info = self._info(version, vdir, manifest, name)
        if activate:
            self.activate(version)
        return info

    # -- enumeration and loading --------------------------------------------

    def versions(self) -> list[int]:
        """Published (manifest-sealed) version numbers, ascending."""
        try:
            entries = os.listdir(self.root)
        except OSError:
            return []
        found = []
        for name in entries:
            match = _VERSION_DIR_RE.match(name)
            if match and os.path.exists(
                os.path.join(self.root, name, "manifest.json")
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    def describe(self, version: int) -> ModelVersion:
        """Decode one version's manifest (no payload read)."""
        manifest, vdir, name = self._read_manifest(version)
        return self._info(version, vdir, manifest, name)

    @staticmethod
    def _info(version: int, vdir: str, manifest: dict,
              name: str) -> ModelVersion:
        return ModelVersion(
            version=version, path=vdir,
            model_digest=manifest["files"][name],
            compiled_digest=manifest["compiled_digest"],
            meta=manifest.get("meta", {}),
        )

    def _read_manifest(self, version: int) -> tuple[dict, str, str]:
        """The manifest, the version directory and the payload's file
        name; :class:`ModelArtifactError` unless the manifest is an
        object of a readable format naming its payload's digest."""
        vdir = os.path.join(self.root, _version_dir_name(version))
        path = os.path.join(vdir, "manifest.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise ModelNotFoundError(
                f"model version {version} not found under {self.root!r}"
            ) from None
        except (OSError, ValueError) as exc:
            raise ModelArtifactError(
                f"model manifest {path!r} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ModelArtifactError(
                f"model manifest {path!r} is not a JSON object: "
                f"{manifest!r:.80}"
            )
        fmt = manifest.get("format")
        if not isinstance(fmt, int) or fmt not in _PAYLOADS:
            raise ModelArtifactError(
                f"unsupported model format {fmt!r} in {path!r} "
                f"(readable: {sorted(_PAYLOADS)})"
            )
        for key in ("version", "files", "compiled_digest"):
            if key not in manifest:
                raise ModelArtifactError(
                    f"model manifest {path!r} is missing {key!r}"
                )
        files = manifest["files"]
        if not isinstance(files, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in files.items()):
            raise ModelArtifactError(
                f"model manifest {path!r}: files must map names to "
                f"digests, not {files!r:.80}"
            )
        name = _PAYLOADS[fmt][0]
        if name not in files:
            raise ModelArtifactError(
                f"model manifest {path!r} names no {name} payload"
            )
        return manifest, vdir, name

    def load(self, version: int) -> ServableModel:
        """Load and fully validate one version (digest-checked payload,
        checked columns, recompiled kernel checked against the sealed
        compiled digest)."""
        manifest, vdir, name = self._read_manifest(version)
        path = os.path.join(vdir, name)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise ModelArtifactError(
                f"model payload {path!r} rejected: unreadable: {exc}"
            ) from exc
        actual = _digest(blob)
        if actual != manifest["files"][name]:
            raise ModelArtifactError(
                f"model payload {path!r} rejected: it is corrupt (digest "
                f"{actual} does not match the manifest's "
                f"{manifest['files'][name]})"
            )
        try:
            tree = _PAYLOADS[manifest["format"]][1](blob)
        except Exception as exc:
            raise ModelArtifactError(
                f"model payload {path!r} does not decode to a tree: {exc}"
            ) from exc
        compiled = tree.compiled()
        if compiled.structure_digest != manifest["compiled_digest"]:
            raise ModelArtifactError(
                f"model {path!r} recompiles to digest "
                f"{compiled.structure_digest}, but the manifest sealed "
                f"{manifest['compiled_digest']} — artifact corrupt or "
                f"compiler drift"
            )
        return ServableModel(self._info(version, vdir, manifest, name),
                             tree, compiled)

    # -- the current version -------------------------------------------------

    def activate(self, version: int) -> ServableModel:
        """Make ``version`` current: validate-load it, swap the in-process
        reference atomically, then replace the on-disk pointer."""
        model = self.load(version)          # reject corrupt *before* swapping
        pointer = os.path.join(self.root, CURRENT_POINTER)
        with self._lock:
            self._current = model
            _atomic_write(pointer, json.dumps(
                {"version": version}).encode("utf-8"))
            self._current_pointer_mtime = self._pointer_mtime()
        return model

    def current(self) -> ServableModel:
        """The in-process current model (load the pointer on first use)."""
        with self._lock:
            if self._current is not None:
                return self._current
        version = self.current_version_on_disk()
        if version is None:
            raise ModelNotFoundError(
                f"no active model under {self.root!r} "
                f"(publish(activate=True) or activate() one first)"
            )
        model = self.load(version)
        with self._lock:
            if self._current is None:
                self._current = model
                self._current_pointer_mtime = self._pointer_mtime()
            return self._current

    def current_version_on_disk(self) -> int | None:
        """Version named by the ``CURRENT`` pointer file, if any."""
        pointer = os.path.join(self.root, CURRENT_POINTER)
        try:
            with open(pointer, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise ModelArtifactError(
                f"current-version pointer {pointer!r} is unreadable: {exc}"
            ) from exc
        try:
            return int(data["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelArtifactError(
                f"current-version pointer {pointer!r} is malformed: {data!r}"
            ) from exc

    def _pointer_mtime(self) -> float | None:
        try:
            return os.stat(os.path.join(self.root, CURRENT_POINTER)).st_mtime_ns
        except OSError:
            return None

    def refresh(self) -> bool:
        """Converge on the on-disk pointer (cross-process hot-swap).

        Cheap when nothing changed (one stat); when another process
        moved ``CURRENT``, loads and swaps in the new version.  Returns
        True iff the current model changed.
        """
        mtime = self._pointer_mtime()
        with self._lock:
            unchanged = (
                self._current is not None
                and mtime == self._current_pointer_mtime
            )
        if unchanged:
            return False
        version = self.current_version_on_disk()
        if version is None:
            return False
        with self._lock:
            if self._current is not None \
                    and self._current.version == version:
                self._current_pointer_mtime = mtime
                return False
        model = self.load(version)
        with self._lock:
            swapped = self._current is not None   # first adoption ≠ swap
            self._current = model
            self._current_pointer_mtime = mtime
        return swapped

    def drain(self, model: ServableModel, timeout: float = 10.0) -> None:
        """Block until ``model`` has no outstanding leases (graceful
        retirement of a superseded version)."""
        deadline = time.monotonic() + timeout
        while model.leases:
            if time.monotonic() > deadline:
                raise RegistryError(
                    f"model v{model.version} still has {model.leases} "
                    f"outstanding leases after {timeout}s"
                )
            time.sleep(0.005)
