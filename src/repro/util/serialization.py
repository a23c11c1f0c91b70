"""Deterministic binary serialization used across the code base.

Every on-disk and on-wire structure is built from big-endian ``u8``/``u32``/
``u64`` integers and ``u32``-length-prefixed byte and UTF-8 strings, with
exactly one encoding per value, so hashes and MACs over them are well defined.
:class:`Writer` and :class:`Reader` are the one codec API; each method does
its check and its ``struct`` call in one frame.
"""

from __future__ import annotations

import struct

from repro.errors import ReproError

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class SerializationError(ReproError):
    """Malformed or truncated serialized data."""


class Writer:
    """Incremental encoder: ``Writer().u32(1).str("alice").take()``; no field nears 4 GiB."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFF:
            raise SerializationError(f"u8 out of range: {value}")
        self._parts.append(bytes((value,)))
        return self

    def u32(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFFFFFFFF:
            raise SerializationError(f"u32 out of range: {value}")
        self._parts.append(_U32.pack(value))
        return self

    def u64(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise SerializationError(f"u64 out of range: {value}")
        self._parts.append(_U64.pack(value))
        return self

    def bool(self, value: bool) -> "Writer":
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def bytes(self, data: bytes) -> "Writer":
        self._parts += (_U32.pack(len(data)), data)
        return self

    def raw(self, data: bytes) -> "Writer":
        """Append ``data`` without a length prefix (caller knows the length)."""
        self._parts.append(data)
        return self

    def str(self, text: str) -> "Writer":
        data = text.encode("utf-8")
        self._parts += (_U32.pack(len(data)), data)
        return self

    def str_list(self, items: "list[str] | tuple[str, ...]") -> "Writer":
        parts = self._parts
        parts.append(_U32.pack(len(items)))
        for item in items:
            data = item.encode("utf-8")
            parts += (_U32.pack(len(data)), data)
        return self

    def take(self) -> bytes:
        """Return the accumulated bytes and reset the writer."""
        result = b"".join(self._parts)
        self._parts = []
        return result


class Reader:
    """Incremental decoder over a byte string with bounds checking."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def u8(self) -> int:
        offset = self._offset
        if offset >= len(self._data):
            raise SerializationError("truncated u8")
        self._offset = offset + 1
        return self._data[offset]

    def u32(self) -> int:
        offset = self._offset
        if offset + 4 > len(self._data):
            raise SerializationError("truncated u32")
        self._offset = offset + 4
        return _U32.unpack_from(self._data, offset)[0]

    def u64(self) -> int:
        offset = self._offset
        if offset + 8 > len(self._data):
            raise SerializationError("truncated u64")
        self._offset = offset + 8
        return _U64.unpack_from(self._data, offset)[0]

    def bool(self) -> bool:
        offset = self._offset
        if offset >= len(self._data) or self._data[offset] > 1:
            raise SerializationError("truncated or invalid bool byte")
        self._offset = offset + 1
        return self._data[offset] == 1

    def bytes(self) -> bytes:
        data, start = self._data, self._offset + 4
        if start > len(data):
            raise SerializationError("truncated u32")
        end = start + _U32.unpack_from(data, start - 4)[0]
        if end > len(data):
            raise SerializationError("truncated byte string")
        self._offset = end
        return data[start:end]

    def raw(self, n: int) -> bytes:
        """Read exactly ``n`` un-prefixed bytes."""
        offset = self._offset
        if offset + n > len(self._data):
            raise SerializationError("truncated raw read")
        self._offset = offset + n
        return self._data[offset : offset + n]

    def str(self) -> str:
        data, start = self._data, self._offset + 4
        if start > len(data):
            raise SerializationError("truncated u32")
        end = start + _U32.unpack_from(data, start - 4)[0]
        if end > len(data):
            raise SerializationError("truncated byte string")
        try:
            text = data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
        self._offset = end
        return text

    def str_list(self) -> list[str]:
        data, start = self._data, self._offset + 4
        if start > len(data):
            raise SerializationError("truncated u32")
        items = []
        try:
            for _ in range(_U32.unpack_from(data, start - 4)[0]):
                if start + 4 > len(data):
                    raise SerializationError("truncated u32")
                end = start + 4 + _U32.unpack_from(data, start)[0]
                if end > len(data):
                    raise SerializationError("truncated byte string")
                items.append(data[start + 4 : end].decode("utf-8"))
                start = end
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
        self._offset = start
        return items

    def expect_end(self) -> None:
        """Raise unless the entire input was consumed."""
        if self._offset != len(self._data):
            raise SerializationError(f"{len(self._data) - self._offset} trailing bytes")
