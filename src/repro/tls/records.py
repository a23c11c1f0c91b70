"""TLS record framing.

A record is ``content_type (u8) || length (u32) || payload``.  Handshake
records carry plaintext handshake messages; application-data records carry
PAE ciphertext.  The untrusted terminator only ever parses this framing —
payloads stay opaque to it.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import TlsError
from repro.util.serialization import SerializationError


class ContentType(enum.IntEnum):
    HANDSHAKE = 22
    APPLICATION_DATA = 23
    ALERT = 21


_CONTENT_TYPES = {int(kind): kind for kind in ContentType}
#: ``content_type (u8) || payload length (u32)``.
_HEADER = struct.Struct(">BI")


@dataclass(frozen=True)
class TlsRecord:
    """One framed TLS record."""

    content_type: ContentType
    payload: bytes

    def serialize(self) -> bytes:
        return _HEADER.pack(self.content_type, len(self.payload)) + self.payload

    @classmethod
    def deserialize(cls, data: bytes) -> "TlsRecord":
        if len(data) < _HEADER.size:
            raise SerializationError("truncated record header")
        kind, length = _HEADER.unpack_from(data)
        content_type = _CONTENT_TYPES.get(kind)
        if content_type is None:
            raise TlsError(f"unknown record content type: {kind}")
        if length != len(data) - _HEADER.size:
            raise SerializationError("record length disagrees with its payload")
        return cls(content_type, data[_HEADER.size :])


def handshake_record(payload: bytes) -> bytes:
    return _HEADER.pack(ContentType.HANDSHAKE, len(payload)) + payload


def data_record(payload: bytes) -> bytes:
    return _HEADER.pack(ContentType.APPLICATION_DATA, len(payload)) + payload


def alert_record(message: str) -> bytes:
    return TlsRecord(ContentType.ALERT, message.encode("utf-8")).serialize()


def parse_record(data: bytes, expected: ContentType) -> bytes:
    """Parse a record and require its content type; alerts raise TlsError."""
    record = TlsRecord.deserialize(data)
    if record.content_type is ContentType.ALERT:
        raise TlsError(f"peer sent alert: {record.payload.decode('utf-8', 'replace')}")
    if record.content_type is not expected:
        raise TlsError(
            f"expected {expected.name} record, got {record.content_type.name}"
        )
    return record.payload
