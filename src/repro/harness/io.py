"""Atomic file IO shared by run artifacts, conformance repros and traces.

Every results file this repository produces goes through
:func:`atomic_write_text`: the payload is written to a sibling temp file
and moved into place with ``os.replace``, which is atomic on POSIX and
Windows. A reader therefore either sees the previous complete file or the
new complete file — never a truncated half-write from a crashed or killed
process.

The loader is the other half of the contract: :func:`load_json_checked`
turns missing files, partial JSON and schema mismatches into a structured
:class:`~repro.core.errors.ArtifactError` instead of an uncaught
``json.JSONDecodeError``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.errors import ArtifactError

__all__ = ["atomic_write_text", "atomic_write_json", "load_json_checked"]


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + ``os.replace``).

    The temp file lives in the destination directory (same filesystem, so
    the rename is atomic) and carries the writer's pid, so concurrent
    processes writing into one directory never collide on it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: Union[str, Path], payload: Any) -> Path:
    """Serialise ``payload`` and write it atomically as ``path``."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=False) + "\n"
    )


def load_json_checked(
    path: Union[str, Path], *, schema: Optional[str] = None
) -> Dict[str, Any]:
    """Load a JSON object, rejecting (not crashing on) bad files.

    Raises :class:`ArtifactError` when the file is unreadable, is not
    valid JSON (truncated partial writes included), is not an object, or
    — when ``schema`` is given — carries a different ``"schema"`` field.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"artifact {path} is not valid JSON (truncated write?): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ArtifactError(
            f"artifact {path} holds {type(data).__name__}, expected an object"
        )
    if schema is not None:
        found = data.get("schema")
        if found is not None and found != schema:
            raise ArtifactError(
                f"artifact {path} has schema {found!r}, expected {schema!r}"
            )
    return data
