"""Model checkpointing to ``.npz`` archives.

``save_module`` stores every named parameter of a module (plus optional
metadata) in a single compressed numpy archive; ``load_module`` restores
them into a freshly constructed module of the same architecture.  This is
the reproduction's checkpoint format — no pickle, so checkpoints are
portable and safe to share.

Parameter dtype round-trips: ``.npz`` stores each array verbatim and
``load_state_dict`` preserves the stored floating dtype, so a ``float32``
checkpoint rehydrates as ``float32`` parameters (it used to be silently
widened to ``float64``).  Note that a layer's *execution* precision is
fixed at construction — to run a float32 checkpoint at complex64, build
the target module with ``dtype="float32"`` before loading.
"""

from __future__ import annotations

import json
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .modules import Module

__all__ = [
    "save_module",
    "load_module",
    "module_fingerprint",
    "resolve_checkpoint_path",
    "read_checkpoint_metadata",
]

_META_KEY = "__repro_meta__"


def resolve_checkpoint_path(path: str | Path) -> Path:
    """Resolve a checkpoint argument to an existing ``.npz`` file.

    A bare name falls back to the ``.npz``-suffixed form (mirroring
    ``save_module``'s suffix handling); a missing file raises
    ``FileNotFoundError`` naming the path that was actually probed.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    return path


def read_checkpoint_metadata(path: str | Path) -> dict:
    """The metadata dict stored by :func:`save_module` (empty if none).

    Reads only the metadata entry — the parameter arrays stay on disk, so
    a registry can decide how to rebuild the architecture before paying
    for deserialization.  An unreadable file raises ``ValueError`` naming
    it.
    """
    return _read_checkpoint(resolve_checkpoint_path(path), arrays=False)[1]


def save_module(module: Module, path: str | Path, metadata: dict | None = None
                ) -> Path:
    """Write all parameters (and JSON-serializable metadata) to ``path``.

    The ``.npz`` suffix is appended if missing.  Returns the final path.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays = {name: param.data for name, param in module.named_parameters()}
    if _META_KEY in arrays:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    meta = dict(metadata or {})
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_module(module: Module, path: str | Path) -> dict:
    """Restore parameters saved by :func:`save_module`; returns the metadata.

    The module must already have the same architecture (same parameter
    names and shapes) — construct it first, then load.  A truncated or
    corrupt checkpoint, or one whose parameter names or shapes do not fit
    the module, raises ``ValueError`` naming the file.
    """
    path = resolve_checkpoint_path(path)
    state, metadata = _read_checkpoint(path, arrays=True)
    _warn_dtype_mismatch(module, state, path)
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise ValueError(
            f"checkpoint {path} does not fit the module: {exc}"
        ) from exc
    return metadata


def _read_checkpoint(path: Path, arrays: bool) -> tuple[dict, dict]:
    """``(parameter arrays, metadata)`` from a checkpoint archive.

    Parameter arrays are read only when ``arrays`` is set.  A truncated or
    corrupt archive, a file that is not a ``.npz`` archive, or metadata
    that is not a JSON object raises ``ValueError`` naming ``path``.
    """
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not a .npz archive")
        with archive:
            state = {name: archive[name] for name in archive.files
                     if arrays and name != _META_KEY}
            metadata = {}
            if _META_KEY in archive.files:
                metadata = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        if not isinstance(metadata, dict):
            raise ValueError("metadata is not a JSON object")
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise ValueError(f"unreadable checkpoint {path}: {exc}") from exc
    return state, metadata


def _warn_dtype_mismatch(module: Module, state: dict, path: Path) -> None:
    """Warn when stored floating widths differ from the module's.

    ``load_state_dict`` preserves the stored dtype, but a layer's
    *execution* precision is fixed at construction — loading float32
    weights into a float64-built module (or vice versa) silently runs the
    checkpoint at the wrong width.  The warning names both dtypes so the
    caller can rebuild with the matching ``dtype=``.
    """
    floats = (np.dtype(np.float32), np.dtype(np.float64))
    for name, param in module.named_parameters():
        stored = state.get(name)
        if stored is None:
            continue
        stored_dtype = np.asarray(stored).dtype
        if (stored_dtype in floats and param.data.dtype in floats
                and stored_dtype != param.data.dtype):
            warnings.warn(
                f"checkpoint {path} stores {stored_dtype} parameters but "
                f"the module was built {param.data.dtype}; rebuild the "
                f"module with dtype={stored_dtype.name!r} to run the "
                "checkpoint at its recorded precision",
                stacklevel=3,
            )
            return


def module_fingerprint(module: Module) -> str:
    """Short content hash of all parameters (change detection in tests)."""
    import hashlib

    digest = hashlib.sha256()
    for name, param in sorted(module.named_parameters()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()[:16]
