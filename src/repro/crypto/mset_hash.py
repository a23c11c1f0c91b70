"""Incremental multiset hashes (MSet-XOR-Hash, Clarke et al., ASIACRYPT'03).

The rollback-protection extension (paper Section V-D) replaces plain
hashes in the Merkle tree with multiset hashes so that an inner node's
hash can be updated incrementally: subtract the stale child hash, add the
new one, never touching siblings.

MSet-XOR-Hash represents a multiset M of byte strings as::

    H(M) = XOR over m in M of H_K(m),  together with |M| mod 2^64

where ``H_K`` is HMAC-SHA256 under a fixed key.  XOR is commutative and
self-inverse, which gives exactly the add/remove operations the tree
needs.  Security (set-collision resistance for a secret key) is
inherited from the PRF; see the cited paper for the proof.

The count is tracked because the plain XOR collapses duplicate elements;
including the cardinality detects a multiset being replayed an even
number of times.
"""

from __future__ import annotations

import hmac
import struct

from repro.util.serialization import SerializationError, pack_u32, unpack_u32

DIGEST_SIZE = 32
#: One hash value: the accumulator followed by the 8-byte count.
VALUE_SIZE = DIGEST_SIZE + 8
_COUNT_MASK = 0xFFFFFFFFFFFFFFFF


class MSetXorHash:
    """A mutable multiset hash value.

    >>> a = MSetXorHash(b"k")
    >>> a.add(b"x"); a.add(b"y"); a.remove(b"x")
    >>> b = MSetXorHash(b"k")
    >>> b.add(b"y")
    >>> a == b
    True
    """

    __slots__ = ("_key", "_acc", "_count")

    def __init__(self, key: bytes, acc: bytes = bytes(DIGEST_SIZE), count: int = 0) -> None:
        self._key = key
        self._acc = acc
        self._count = count

    def _xor(self, digest: bytes, count: int) -> None:
        """XOR ``digest`` into the accumulator; move the count by ``count``."""
        mixed = int.from_bytes(self._acc, "big") ^ int.from_bytes(digest, "big")
        self._acc = mixed.to_bytes(DIGEST_SIZE, "big")
        self._count = (self._count + count) & _COUNT_MASK

    def add(self, element: bytes) -> None:
        """Add one occurrence of ``element`` to the multiset."""
        self._xor(hmac.digest(self._key, element, "sha256"), 1)

    def remove(self, element: bytes) -> None:
        """Remove one occurrence of ``element`` (XOR is self-inverse)."""
        self._xor(hmac.digest(self._key, element, "sha256"), -1)

    def update(self, old: bytes | None, new: bytes | None) -> None:
        """Replace ``old`` with ``new`` in one call (either may be None)."""
        if old is not None:
            self.remove(old)
        if new is not None:
            self.add(new)

    def digest(self) -> bytes:
        """The 40-byte hash value: 32-byte accumulator || 8-byte count."""
        return self._acc + self._count.to_bytes(8, "big")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MSetXorHash):
            return NotImplemented
        return (
            hmac.compare_digest(self._key, other._key)
            and hmac.compare_digest(self._acc, other._acc)
            and self._count == other._count
        )

    def __hash__(self) -> int:
        return hash((self._acc, self._count))

    def __repr__(self) -> str:
        return f"MSetXorHash(count={self._count}, acc={self._acc[:4].hex()}…)"


#: What precedes each value on disk: the length of the (length-prefixed
#: accumulator plus count) record, then the accumulator's own length.
_VALUE_HEADER = pack_u32(4 + VALUE_SIZE) + pack_u32(DIGEST_SIZE)
_RECORD_SIZE = len(_VALUE_HEADER) + VALUE_SIZE


class MSetXorBuckets:
    """The B bucket hashes of one guard node, under one key.

    Held as a single buffer of B × 40 bytes — the concatenation of the
    buckets' :meth:`MSetXorHash.digest` values — so loading, copying,
    MAC-ing and storing a node handle one buffer, and an update touches
    one 40-byte slot whatever B is.
    """

    __slots__ = ("_key", "_values")

    def __init__(self, key: bytes, values: bytearray) -> None:
        self._key = key
        self._values = values

    @classmethod
    def empty(cls, key: bytes, buckets: int) -> "MSetXorBuckets":
        """``buckets`` empty multisets."""
        return cls(key, bytearray(buckets * VALUE_SIZE))

    def __len__(self) -> int:
        return len(self._values) // VALUE_SIZE

    def _slot(self, index: int) -> slice:
        """Where bucket ``index`` lives.  Checked: a slice past the end
        would read as empty and *grow* the buffer on assignment."""
        if not 0 <= index < len(self):
            raise IndexError(f"bucket {index} of {len(self)}")
        return slice(index * VALUE_SIZE, (index + 1) * VALUE_SIZE)

    def update(self, index: int, old: bytes | None, new: bytes | None) -> None:
        """Replace ``old`` with ``new`` in bucket ``index`` (either may be None)."""
        slot = self._slot(index)
        value = bytes(self._values[slot])
        bucket = MSetXorHash(
            self._key, value[:DIGEST_SIZE], int.from_bytes(value[DIGEST_SIZE:], "big")
        )
        bucket.update(old, new)
        self._values[slot] = bucket.digest()

    def digest(self, index: int) -> bytes:
        """The 40-byte hash value of bucket ``index``."""
        return bytes(self._values[self._slot(index)])

    def digests(self) -> bytes:
        """Every bucket's digest, concatenated in bucket order."""
        return bytes(self._values)

    def copy(self) -> "MSetXorBuckets":
        return MSetXorBuckets(self._key, self._values[:])

    def serialize(self) -> bytes:
        """``u32 B`` then, per bucket, ``u32 44 ‖ u32 32 ‖ accumulator ‖ u64 count``."""
        values = struct.unpack(f"{VALUE_SIZE}s" * len(self), self._values)
        # join() writes its separator *between* items, so a leading empty
        # item puts one header in front of every value.
        return pack_u32(len(values)) + _VALUE_HEADER.join((b"", *values))

    @classmethod
    def deserialize(cls, key: bytes, data: bytes) -> "MSetXorBuckets":
        buckets, start = unpack_u32(data)
        if len(data) - start != buckets * _RECORD_SIZE:
            raise SerializationError("bucket count disagrees with the encoded length")
        fields = struct.unpack_from(f"{len(_VALUE_HEADER)}s{VALUE_SIZE}s" * buckets, data, start)
        if fields[0::2] != (_VALUE_HEADER,) * buckets:
            raise SerializationError("bad multiset hash length prefix")
        return cls(key, bytearray(b"".join(fields[1::2])))
