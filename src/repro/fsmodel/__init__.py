"""The file system model of paper Section II-C: paths and directory files."""

from repro.fsmodel.directory import DirectoryFile
from repro.fsmodel.paths import (
    ROOT,
    ancestors,
    is_dir_path,
    join,
    name_of,
    parent,
    validate_path,
)

__all__ = [
    "ROOT",
    "DirectoryFile",
    "ancestors",
    "is_dir_path",
    "join",
    "name_of",
    "parent",
    "validate_path",
]
