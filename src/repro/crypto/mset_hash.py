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

``H_K`` is a :class:`Prf`; the one-value reference definition the bucket
buffer is tested against is ``tests/support/mset.py``.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import compress

from repro.util.serialization import Reader, SerializationError, Writer

DIGEST_SIZE = 32
#: One hash value: the accumulator followed by the 8-byte count.
VALUE_SIZE = DIGEST_SIZE + 8
_VALUE = struct.Struct(f">{DIGEST_SIZE}sQ")
_COUNT_MASK = 0xFFFFFFFFFFFFFFFF
#: SHA-256's block, and the key pads of RFC 2104 as translation tables.
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class Prf:
    """HMAC-SHA256 under one key, bit-identical to ``hmac.digest(key, m,
    "sha256")``: the SHA-256 states that absorbed the padded key (RFC 2104's
    pads) are taken once, and a call copies them."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def __call__(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


#: An empty bucket's value (accumulator 0, count 0), which no node stores.
_EMPTY = bytes(VALUE_SIZE)
#: A bitmap's binary digits as the 0/1 selector bytes ``compress`` takes.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


class MSetXorBuckets:
    """The B bucket hashes of one guard node, under one key.

    Held as a single buffer of B × 40 bytes — each bucket's 32-byte
    accumulator and 8-byte count — so copying and MAC-ing a node handle
    one buffer, and an update rewrites one 40-byte slot in place.
    Stored sparse: only the non-empty buckets' values, so a node costs
    O(children) bytes, not O(B).  The bitmap of non-empty buckets is kept
    beside the buffer, set and cleared by :meth:`update`.
    """

    __slots__ = ("_prf", "_values", "_bitmap")

    def __init__(self, prf: Prf, values: bytearray, bitmap: int) -> None:
        self._prf = prf
        self._values = values
        self._bitmap = bitmap

    @classmethod
    def empty(cls, prf: Prf, buckets: int) -> "MSetXorBuckets":
        """``buckets`` empty multisets."""
        return cls(prf, bytearray(buckets * VALUE_SIZE), 0)

    def __len__(self) -> int:
        return len(self._values) // VALUE_SIZE

    def _slot(self, index: int) -> int:
        """Where bucket ``index`` starts.  Checked: a slot past the end
        would read as empty and *grow* the buffer on assignment."""
        if not 0 <= index < len(self):
            raise IndexError(f"bucket {index} of {len(self)}")
        return index * VALUE_SIZE

    def update(self, index: int, old: bytes | None, new: bytes | None) -> None:
        """Replace ``old`` with ``new`` in bucket ``index`` (either may be None)."""
        at = self._slot(index)
        acc, count = _VALUE.unpack_from(self._values, at)
        acc = int.from_bytes(acc, "big")
        if old is not None:
            acc ^= int.from_bytes(self._prf(old), "big")
            count -= 1
        if new is not None:
            acc ^= int.from_bytes(self._prf(new), "big")
            count += 1
        count &= _COUNT_MASK
        _VALUE.pack_into(self._values, at, acc.to_bytes(DIGEST_SIZE, "big"), count)
        self._bitmap = self._bitmap | 1 << index if acc or count else self._bitmap & ~(1 << index)

    def digest(self, index: int) -> bytes:
        """The 40-byte hash value of bucket ``index``."""
        at = self._slot(index)
        return bytes(self._values[at : at + VALUE_SIZE])

    def digests(self) -> bytes:
        """Every bucket's digest, concatenated in bucket order."""
        return bytes(self._values)

    def copy(self) -> "MSetXorBuckets":
        return MSetXorBuckets(self._prf, self._values[:], self._bitmap)

    def serialize(self) -> bytes:
        """``u32 B ‖ ⌈B/8⌉-byte bitmap ‖ the non-empty buckets' values in
        bucket order``; bit i of the little-endian bitmap marks bucket i."""
        buckets, bitmap = len(self), self._bitmap
        head = Writer().u32(buckets).take() + bitmap.to_bytes(-(-buckets // 8), "little")
        if bitmap == (1 << buckets) - 1:  # a full node stores its buffer as it is
            return head + self._values
        kept = f"{bitmap:0{buckets}b}"[::-1].encode().translate(_FLAGS)
        return head + b"".join(compress(struct.unpack(f"{VALUE_SIZE}s" * buckets, self._values), kept))

    @classmethod
    def deserialize(cls, prf: Prf, data: bytes) -> "MSetXorBuckets":
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
            return cls(prf, bytearray(stored), bitmap)
        # One "%s" per stored bucket, 40 zero bytes per empty one.
        template = f"{bitmap:0{buckets}b}"[::-1].encode().replace(b"1", b"%s").replace(b"0", _EMPTY)
        return cls(prf, bytearray(template % values), bitmap)
