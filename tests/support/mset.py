"""The one-value MSet-XOR-Hash reference (Clarke et al., ASIACRYPT'03).

The enclave keeps a guard node's B values in one buffer and updates them
in place (:class:`repro.crypto.mset_hash.MSetXorBuckets`, hashing from
precomputed HMAC pads).  This is the plain definition it must equal: an
accumulator XOR-ing ``hmac.digest(key, element, "sha256")`` per element
and a count mod 2^64, one object per multiset.
"""

from __future__ import annotations

import hmac

from repro.crypto.mset_hash import DIGEST_SIZE

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
