"""A classic binary Merkle hash tree, folded to its root.

Used by the Protected File System Library clone
(:mod:`repro.sgx.protected_fs`) to authenticate the 4 KiB chunk array of a
protected file, exactly as Intel's library does.  (The *file-system-wide*
rollback tree of paper Section V-D is a different structure — it lives in
:mod:`repro.core.rollback` and uses multiset hashes.)

Leaves are hashed with a ``0x00`` domain-separation prefix and interior
nodes with ``0x01`` to rule out second-preimage splicing attacks.
"""

from __future__ import annotations

import hashlib

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """Merkle root over a list of leaf values.

    Only the leaf digests are kept; :meth:`root` folds them level by level.
    Odd nodes are promoted unchanged, the scheme used by Certificate
    Transparency.
    """

    def __init__(self, leaves: list[bytes] | None = None) -> None:
        self._leaf_hashes: list[bytes] = [hash_leaf(leaf) for leaf in (leaves or [])]

    @classmethod
    def from_leaf_hashes(cls, leaf_hashes: list[bytes]) -> "MerkleTree":
        """A tree over leaves already reduced to their :func:`hash_leaf` digests."""
        tree = cls()
        tree._leaf_hashes = list(leaf_hashes)
        return tree

    def root(self) -> bytes:
        """Root digest; the empty tree hashes to SHA-256 of the empty string."""
        if not self._leaf_hashes:
            return hashlib.sha256(b"").digest()
        level = self._leaf_hashes
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                if i + 1 < len(level):
                    nxt.append(hash_node(level[i], level[i + 1]))
                else:
                    nxt.append(level[i])
            level = nxt
        return level[0]
