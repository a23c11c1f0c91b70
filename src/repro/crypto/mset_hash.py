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
from itertools import compress

from repro.util.serialization import Reader, SerializationError, Writer

DIGEST_SIZE = 32
#: One hash value: the accumulator followed by the 8-byte count.
VALUE_SIZE = DIGEST_SIZE + 8
_COUNT_MASK = 0xFFFFFFFFFFFFFFFF


class MSetXorHash:
    """A mutable multiset hash value."""

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
        # The digest is fixed-size, so equal concatenations mean equal keys.
        return hmac.compare_digest(self._key + self.digest(), other._key + other.digest())

    def __repr__(self) -> str:
        return f"MSetXorHash(count={self._count}, acc={self._acc[:4].hex()}…)"


#: An empty bucket's value (accumulator 0, count 0), which no node stores.
_EMPTY = bytes(VALUE_SIZE)
_BITS = bytes.maketrans(b"\0\1", b"01")


class MSetXorBuckets:
    """The B bucket hashes of one guard node, under one key.

    Held as a single buffer of B × 40 bytes — the concatenation of the
    buckets' :meth:`MSetXorHash.digest` values — so copying and MAC-ing a
    node handle one buffer, and an update touches one 40-byte slot.
    Stored sparse: only the non-empty buckets' values, so a node costs
    O(children) bytes, not O(B).
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
        bucket = MSetXorHash(self._key, value[:DIGEST_SIZE], int.from_bytes(value[DIGEST_SIZE:], "big"))
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
        """``u32 B ‖ ⌈B/8⌉-byte bitmap ‖ the non-empty buckets' values in
        bucket order``; bit i of the little-endian bitmap marks bucket i."""
        values = struct.unpack(f"{VALUE_SIZE}s" * len(self), self._values)
        head = Writer().u32(len(values)).take()
        if _EMPTY not in values:  # a full node stores its buffer as it is
            return head + ((1 << len(values)) - 1).to_bytes(-(-len(values) // 8), "little") + self._values
        kept = bytes([value != _EMPTY for value in values])
        bitmap = int(kept[::-1].translate(_BITS), 2)
        return b"".join((head, bitmap.to_bytes(-(-len(values) // 8), "little"), *compress(values, kept)))

    @classmethod
    def deserialize(cls, key: bytes, data: bytes) -> "MSetXorBuckets":
        """The inverse of :meth:`serialize`, for its output only: a bit at or
        above B, a stored empty value or a length off by a byte is an error."""
        r = Reader(data)
        buckets = r.u32()
        bitmap = int.from_bytes(r.raw(-(-buckets // 8)), "little")
        stored = r.raw(r.remaining)
        if bitmap >> buckets or len(stored) != bitmap.bit_count() * VALUE_SIZE:
            raise SerializationError("bucket bitmap disagrees with the encoded length")
        values = struct.unpack(f"{VALUE_SIZE}s" * bitmap.bit_count(), stored)
        if _EMPTY in values:
            raise SerializationError("an empty bucket is encoded")
        if len(values) == buckets:  # a full node: the values are the buffer
            return cls(key, bytearray(stored))
        # One "%s" per stored bucket, 40 zero bytes per empty one.
        template = f"{bitmap:0{buckets}b}"[::-1].encode().replace(b"1", b"%s").replace(b"0", _EMPTY)
        return cls(key, bytearray(template % values))
