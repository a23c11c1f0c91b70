"""A classic binary Merkle hash tree.

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
import hmac

from repro.errors import IntegrityError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """Merkle tree over an append-able, updatable list of leaf values.

    The tree keeps all levels in memory (lists of digests) so that single
    leaf updates are O(log n) rehashes.  Odd nodes are promoted unchanged,
    the scheme used by Certificate Transparency.
    """

    def __init__(self, leaves: list[bytes] | None = None) -> None:
        self._leaf_hashes: list[bytes] = [hash_leaf(leaf) for leaf in (leaves or [])]
        self._levels: list[list[bytes]] = []
        self._rebuild()

    @classmethod
    def from_leaf_hashes(cls, leaf_hashes: list[bytes]) -> "MerkleTree":
        """A tree over leaves already reduced to their :func:`hash_leaf` digests."""
        tree = cls()
        tree._leaf_hashes = list(leaf_hashes)
        tree._rebuild()
        return tree

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    def _rebuild(self) -> None:
        levels = [list(self._leaf_hashes)]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt = []
            for i in range(0, len(prev), 2):
                if i + 1 < len(prev):
                    nxt.append(hash_node(prev[i], prev[i + 1]))
                else:
                    nxt.append(prev[i])
            levels.append(nxt)
        self._levels = levels

    def root(self) -> bytes:
        """Root digest; the empty tree hashes to SHA-256 of the empty string."""
        if not self._leaf_hashes:
            return hashlib.sha256(b"").digest()
        return self._levels[-1][0]

    def append(self, leaf: bytes) -> None:
        """Append a new leaf (rebuilds the affected path)."""
        self._leaf_hashes.append(hash_leaf(leaf))
        self._rebuild()

    def update(self, index: int, leaf: bytes) -> None:
        """Replace the leaf at ``index`` and rehash only its root path."""
        if not 0 <= index < len(self._leaf_hashes):
            raise IndexError(f"leaf index {index} out of range")
        self._leaf_hashes[index] = hash_leaf(leaf)
        self._levels[0][index] = self._leaf_hashes[index]
        pos = index
        for level in range(len(self._levels) - 1):
            parent = pos // 2
            left = self._levels[level][2 * parent]
            if 2 * parent + 1 < len(self._levels[level]):
                digest = hash_node(left, self._levels[level][2 * parent + 1])
            else:
                digest = left
            self._levels[level + 1][parent] = digest
            pos = parent

    def proof(self, index: int) -> list[tuple[bool, bytes]]:
        """Inclusion proof for leaf ``index`` as (sibling_is_right, digest) pairs."""
        if not 0 <= index < len(self._leaf_hashes):
            raise IndexError(f"leaf index {index} out of range")
        path = []
        pos = index
        for level in self._levels[:-1]:
            sibling = pos ^ 1
            if sibling < len(level):
                path.append((sibling > pos, level[sibling]))
            pos //= 2
        return path

    @staticmethod
    def verify_proof(leaf: bytes, index: int, proof: list[tuple[bool, bytes]], root: bytes) -> None:
        """Check an inclusion proof; raise :class:`IntegrityError` on mismatch."""
        digest = hash_leaf(leaf)
        for sibling_is_right, sibling in proof:
            if sibling_is_right:
                digest = hash_node(digest, sibling)
            else:
                digest = hash_node(sibling, digest)
        if not hmac.compare_digest(digest, root):
            raise IntegrityError("Merkle proof does not match root")
