"""Small shared utilities with no simulation dependencies.

Lazy package exports (:func:`lazy_exports`), content fingerprints and
crash-safe file writes.  Result files (CSV exports, benchmark
baselines, sweep checkpoints) must never be left half-written by a kill
mid-write -- a truncated ``BENCH_*.json`` or checkpoint would silently
poison later runs.  :func:`atomic_write` provides the standard
write-to-temp + ``os.replace`` idiom: the destination either keeps its old
content or atomically gains the complete new content, never anything in
between.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "atomic_write",
    "atomic_write_json",
    "lazy_exports",
    "stable_fingerprint",
]


def lazy_exports(package: str, exports: dict[str, str]) -> Callable:
    """A PEP 562 module ``__getattr__`` for ``package``.

    ``exports`` maps each public name to the module that defines it.  The
    module is imported on the name's first access and the value cached in
    the package, so importing the package itself loads none of them: a
    command that only reads cached results never imports NumPy or the
    simulator through a package ``__init__``.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


def stable_fingerprint(payload: Any, length: int = 16) -> str:
    """Hex SHA-256 prefix of a canonically serialised JSON-able payload.

    Canonical form is ``json.dumps(payload, sort_keys=True, default=str)``
    -- dict ordering never matters, floats print shortest-round-trip, and
    non-JSON leaves (paths, enums) degrade deterministically via ``str``.
    Both the sweep checkpoint fingerprint and the content-addressed
    result-cache key are built on this, so the two can never drift apart
    in how they canonicalise the same inputs.
    """
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def atomic_write(
    path: str | Path,
    data: str | bytes,
    encoding: str = "utf-8",
    fsync: bool = False,
) -> Path:
    """Write ``data`` to ``path`` atomically; returns the resolved path.

    The data is written to a uniquely named temporary file in the same
    directory (same filesystem, so the final rename cannot cross devices)
    and moved into place with :func:`os.replace`, which is atomic on
    POSIX and Windows.  A crash at any point leaves either the old file
    or the complete new file -- never a truncation.

    ``fsync=True`` additionally flushes the temp file to disk before the
    rename, hardening against power loss as well as process death (at
    measurable cost; checkpointers that record many small units should
    leave it off and rely on process-crash atomicity).
    """
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    kwargs = {} if isinstance(data, bytes) else {"encoding": encoding}
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(
    path: str | Path, obj: Any, indent: int | None = 2, fsync: bool = False
) -> Path:
    """Serialise ``obj`` as JSON and write it atomically (trailing newline)."""
    return atomic_write(
        path, json.dumps(obj, indent=indent, sort_keys=True) + "\n", fsync=fsync
    )
