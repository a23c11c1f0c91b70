"""Merkle tree: roots, odd-node promotion, domain separation."""

import hashlib

import pytest

from repro.crypto.merkle import MerkleTree, hash_leaf, hash_node


class TestBasics:
    def test_empty_root_is_defined(self):
        assert MerkleTree().root() == hashlib.sha256(b"").digest()

    def test_single_leaf_root(self):
        tree = MerkleTree([b"only"])
        assert tree.root() == hash_leaf(b"only")

    def test_two_leaves(self):
        tree = MerkleTree([b"a", b"b"])
        assert tree.root() == hash_node(hash_leaf(b"a"), hash_leaf(b"b"))

    def test_odd_leaf_promoted(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        expected = hash_node(
            hash_node(hash_leaf(b"a"), hash_leaf(b"b")), hash_leaf(b"c")
        )
        assert tree.root() == expected

    def test_leaf_and_node_domains_are_separated(self):
        # A leaf whose content equals an interior encoding must not collide.
        left, right = hash_leaf(b"a"), hash_leaf(b"b")
        assert hash_node(left, right) != hash_leaf(left + right)


class TestFromLeafHashes:
    #: Roots of ``MerkleTree([bytes([i]) * 40 for i in range(n)])`` at commit
    #: e3ccc33, before the tree could be built from leaf digests.
    PARENT_ROOTS = {
        0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        1: "9e1736c43d19118e6ce4302118af337109491ecc52757dfb949bad6a7940b0c2",
        2: "68c2adea1a24165d1a61922d2446a72465fedba46b1cca0b2553d37096819f88",
        3: "866d46a87c1415d90a21b5b1f26bd17c8c3f0b6bcb84a6114a061b44f417c83f",
        5: "0eb986809d96cb2a936b6c9ef4ff028508399fb4c4106c6227eb54b55a9160ec",
        8: "a7fb8824d858d4acf6e22045522b0d22f19d8336ed461bd1a9bfaefa1ce0adaa",
    }

    @pytest.mark.parametrize("count", sorted(PARENT_ROOTS))
    def test_roots_match_the_parent_commit(self, count):
        leaves = [bytes([i]) * 40 for i in range(count)]
        assert MerkleTree(leaves).root().hex() == self.PARENT_ROOTS[count]
        from_hashes = MerkleTree.from_leaf_hashes([hash_leaf(leaf) for leaf in leaves])
        assert from_hashes.root().hex() == self.PARENT_ROOTS[count]

    def test_does_not_alias_the_callers_list(self):
        hashes = [hash_leaf(b"a"), hash_leaf(b"b")]
        tree = MerkleTree.from_leaf_hashes(hashes)
        root = tree.root()
        hashes.append(hash_leaf(b"c"))
        assert tree.root() == root


class _LevelTree:
    """The level-building tree ``root()`` replaced, kept as its reference."""

    def __init__(self, leaf_hashes):
        self._leaf_hashes = leaf_hashes
        self._rebuild()

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
        if not self._leaf_hashes:
            return hashlib.sha256(b"").digest()
        return self._levels[-1][0]


def test_root_fold_equals_the_level_building_tree():
    """Every leaf count 0..65: even, odd, and each power of two +/- 1."""
    for count in range(66):
        leaves = [b"leaf %d" % i for i in range(count)]
        hashes = [hash_leaf(leaf) for leaf in leaves]
        expected = _LevelTree(hashes).root()
        assert MerkleTree(leaves).root() == expected, count
        assert MerkleTree.from_leaf_hashes(hashes).root() == expected, count
