"""Directory file content: the sorted child list.

Per the paper, each directory file "stores a list of all its children";
Algo. 1 appends the child's path on ``put``.  The list is kept sorted so
lookups and removals are logarithmic, the same discipline the ACL files
use.  The serialized form is what the trusted file manager encrypts.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, TypeVar

from repro.errors import FileSystemError
from repro.util.serialization import Reader, Writer

_Names = TypeVar("_Names", bound="SortedNames")

class SortedNames:
    """A sorted list of distinct names, encoded as one string list: a lookup
    is one binary search, an update one list operation."""

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names = sorted(names)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: str) -> bool:
        index = bisect.bisect_left(self._names, name)
        return index < len(self._names) and self._names[index] == name

    def add(self, name: str) -> None:
        """Insert ``name``; idempotent."""
        index = bisect.bisect_left(self._names, name)
        if index == len(self._names) or self._names[index] != name:
            self._names.insert(index, name)

    def remove(self, name: str) -> None:
        index = bisect.bisect_left(self._names, name)
        if index >= len(self._names) or self._names[index] != name:
            raise self._missing(name)
        del self._names[index]

    def _missing(self, name: str) -> Exception:
        """The error removing an absent ``name`` raises; each kind names its own."""
        raise NotImplementedError

    def copy(self: _Names) -> _Names:
        clone = object.__new__(type(self))
        clone._names = self._names[:]
        return clone

    def serialize(self) -> bytes:
        return Writer().str_list(self._names).take()

    @classmethod
    def deserialize(cls: type[_Names], data: bytes) -> _Names:
        r = Reader(data)
        names = r.str_list()
        r.expect_end()
        return cls(names)


class DirectoryFile(SortedNames):
    """In-enclave representation of a directory file's plaintext content."""

    @property
    def children(self) -> list[str]:
        """Sorted child paths (copies; mutate via add/remove)."""
        return list(self._names)

    def _missing(self, name: str) -> Exception:
        return FileSystemError(f"{name!r} is not a child of this directory")
