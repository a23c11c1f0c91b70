"""The file system model of paper Section II-C: paths and directory files."""

from repro.fsmodel.directory import DirectoryFile
from repro.fsmodel.paths import (
    ROOT,
    is_dir_path,
    parent,
    validate_path,
)

__all__ = [
    "ROOT",
    "DirectoryFile",
    "is_dir_path",
    "parent",
    "validate_path",
]
