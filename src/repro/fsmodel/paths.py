"""Path rules of the paper's file system model (Section II-C).

* The root directory is ``"/"``.
* A directory path is the concatenation of all directory names from the
  root, delimited **and concluded** by ``"/"`` — so directory paths always
  end with a slash: ``/D/``, ``/D/E/``.
* A content-file path is its parent directory's path plus the filename:
  ``/D/F`` — content paths never end with a slash.
* Names are flexible but must not contain ``"/"`` and must be non-empty.

This module is pure string logic with no I/O; the request handler uses
``isDir``/``parent`` exactly as Algo. 1 does.
"""

from __future__ import annotations

from repro.errors import PathError

ROOT = "/"


def is_dir_path(path: str) -> bool:
    """True iff ``path`` is syntactically a directory path (ends with "/")."""
    return path.endswith("/")


def validate_path(path: str) -> None:
    """Raise :class:`PathError` unless ``path`` is well formed."""
    if not path.startswith(ROOT):
        raise PathError(f"path must be absolute: {path!r}")
    if path == ROOT:
        return
    body = path[1:-1] if path.endswith("/") else path[1:]
    for component in body.split("/"):
        if not component:
            raise PathError(f"empty path component in {path!r}")
        # Names may hold anything but "/" and NUL, which breaks the storage-key encoding.
        if "\x00" in component:
            raise PathError(f"forbidden character in path component {component!r}")


def parent(path: str) -> str:
    """Parent directory path of ``path`` (Table IV's ``parent``).

    >>> parent("/D/F")
    '/D/'
    >>> parent("/D/E/")
    '/D/'
    >>> parent("/F")
    '/'
    """
    validate_path(path)
    if path == ROOT:
        raise PathError("the root directory has no parent")
    trimmed = path[:-1] if path.endswith("/") else path
    cut = trimmed.rfind("/")
    return trimmed[: cut + 1]
