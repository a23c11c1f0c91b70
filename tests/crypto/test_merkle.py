"""Merkle tree: roots, updates, inclusion proofs, domain separation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree, hash_leaf, hash_node
from repro.errors import IntegrityError


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

    def test_append_changes_root(self):
        tree = MerkleTree([b"a"])
        before = tree.root()
        tree.append(b"b")
        assert tree.root() != before
        assert len(tree) == 2


class TestUpdate:
    def test_update_matches_rebuild(self):
        leaves = [f"leaf{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        tree.update(3, b"replacement")
        rebuilt = MerkleTree(leaves[:3] + [b"replacement"] + leaves[4:])
        assert tree.root() == rebuilt.root()

    def test_update_out_of_range(self):
        with pytest.raises(IndexError):
            MerkleTree([b"a"]).update(1, b"x")


class TestProofs:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
    def test_all_proofs_verify(self, size):
        leaves = [f"leaf{i}".encode() for i in range(size)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            MerkleTree.verify_proof(leaf, index, tree.proof(index), tree.root())

    def test_wrong_leaf_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        with pytest.raises(IntegrityError):
            MerkleTree.verify_proof(b"x", 0, tree.proof(0), tree.root())

    def test_wrong_root_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IntegrityError):
            MerkleTree.verify_proof(b"a", 0, tree.proof(0), bytes(32))

    def test_proof_for_missing_index(self):
        with pytest.raises(IndexError):
            MerkleTree([b"a"]).proof(5)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(max_size=20), min_size=1, max_size=20), st.data())
def test_incremental_update_equals_rebuild(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    new_leaf = data.draw(st.binary(max_size=20))
    tree.update(index, new_leaf)
    expected = MerkleTree(leaves[:index] + [new_leaf] + leaves[index + 1 :])
    assert tree.root() == expected.root()


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
        assert len(from_hashes) == count

    def test_proofs_verify_against_the_leaf_values(self):
        leaves = [b"a", b"b", b"c", b"d", b"e"]
        tree = MerkleTree.from_leaf_hashes([hash_leaf(leaf) for leaf in leaves])
        for index, leaf in enumerate(leaves):
            MerkleTree.verify_proof(leaf, index, tree.proof(index), tree.root())

    def test_does_not_alias_the_callers_list(self):
        hashes = [hash_leaf(b"a"), hash_leaf(b"b")]
        tree = MerkleTree.from_leaf_hashes(hashes)
        root = tree.root()
        hashes.append(hash_leaf(b"c"))
        assert tree.root() == root and len(tree) == 2
