"""Small shared utilities: length-prefixed binary serialization."""

from repro.util.serialization import (
    Reader,
    Writer,
    pack_bytes,
    pack_str,
    pack_u32,
    pack_u64,
    unpack_bytes,
    unpack_str,
    unpack_u32,
    unpack_u64,
)

__all__ = [
    "Reader",
    "Writer",
    "pack_bytes",
    "pack_str",
    "pack_u32",
    "pack_u64",
    "unpack_bytes",
    "unpack_str",
    "unpack_u32",
    "unpack_u64",
]
