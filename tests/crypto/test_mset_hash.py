"""MSet-XOR-Hash: incremental multiset-hash algebra and properties."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mset_hash import MSetXorBuckets, Prf
from repro.util.serialization import SerializationError, Writer

from tests.support.calls import python_calls
from tests.support.mset import MSetXorHash

KEY = b"test-key"
PRF = Prf(KEY)


def count(h: MSetXorHash) -> int:
    """The cardinality a value carries: the digest's trailing u64."""
    return int.from_bytes(h.digest()[32:], "big")


class TestAlgebra:
    def test_empty_hashes_equal(self):
        assert MSetXorHash(KEY) == MSetXorHash(KEY)

    def test_order_independence(self):
        a = MSetXorHash(KEY)
        b = MSetXorHash(KEY)
        for element in (b"x", b"y", b"z"):
            a.add(element)
        for element in (b"z", b"x", b"y"):
            b.add(element)
        assert a == b
        assert a.digest() == b.digest()

    def test_remove_inverts_add(self):
        h = MSetXorHash(KEY)
        h.add(b"x")
        h.add(b"y")
        h.remove(b"x")
        expected = MSetXorHash(KEY)
        expected.add(b"y")
        assert h == expected

    def test_update_replaces(self):
        h = MSetXorHash(KEY)
        h.add(b"old")
        h.update(b"old", b"new")
        expected = MSetXorHash(KEY)
        expected.add(b"new")
        assert h == expected

    def test_update_with_nones(self):
        h = MSetXorHash(KEY)
        h.update(None, b"x")  # pure add
        h.update(b"x", None)  # pure remove
        assert h == MSetXorHash(KEY)

    def test_count_distinguishes_duplicates(self):
        # XOR alone collapses pairs; the cardinality must not.
        twice = MSetXorHash(KEY)
        twice.add(b"x")
        twice.add(b"x")
        assert twice != MSetXorHash(KEY)
        assert count(twice) == 2

    def test_key_separates(self):
        a = MSetXorHash(b"k1")
        b = MSetXorHash(b"k2")
        a.add(b"x")
        b.add(b"x")
        assert a.digest() != b.digest()


class TestSerialization:
    """Values are stored only as the bucket vector of a guard node."""

    def test_round_trip(self):
        h = MSetXorHash(KEY)
        h.add(b"alpha")
        h.add(b"beta")
        vector = MSetXorBuckets.empty(PRF, 3)
        vector.update(1, None, b"alpha")
        vector.update(1, None, b"beta")
        restored = MSetXorBuckets.deserialize(PRF, vector.serialize())
        assert len(restored) == 3
        assert restored.digest(1) == h.digest()
        assert restored.digests() == vector.digests()

    def test_copy_is_independent(self):
        vector = MSetXorBuckets.empty(PRF, 2)
        vector.update(0, None, b"x")
        clone = vector.copy()
        clone.update(0, None, b"y")
        clone.update(1, None, b"z")
        x, xy, z = MSetXorHash(KEY), MSetXorHash(KEY), MSetXorHash(KEY)
        x.add(b"x")
        xy.add(b"x")
        xy.add(b"y")
        z.add(b"z")
        assert vector.digests() == x.digest() + MSetXorHash(KEY).digest()
        assert clone.digests() == xy.digest() + z.digest()

    def test_digest_length(self):
        assert len(MSetXorHash(KEY).digest()) == 40  # 32-byte acc + 8-byte count
        assert len(MSetXorBuckets.empty(PRF, 5).digests()) == 5 * 40
        assert MSetXorBuckets.empty(PRF, 5).digest(4) == MSetXorHash(KEY).digest()


def scripted_vector(buckets: int) -> MSetXorBuckets:
    """The fixed update script the known answers below were computed on."""
    vector = MSetXorBuckets.empty(Prf(b"known-answer-key"), buckets)
    for i in range(48):
        vector.update((i * 5 + 3) % buckets, None, b"main-%d" % i)
    for i in range(0, 48, 3):
        vector.update((i * 5 + 3) % buckets, b"main-%d" % i, b"next-%d" % i)
    for i in range(1, 48, 6):
        vector.update((i * 5 + 3) % buckets, b"main-%d" % i, None)
    return vector


def dense_encoding(vector: MSetXorBuckets) -> bytes:
    """The layout nodes were stored in before the sparse codec: ``u32 B``
    then, per bucket, ``u32 44 ‖ u32 32 ‖ accumulator ‖ u64 count``."""
    header = Writer().u32(44).u32(32).take()
    return Writer().u32(len(vector)).take() + b"".join(header + vector.digest(i) for i in range(len(vector)))


class TestBucketVector:
    #: B -> (encoded length, sha256 of the encoding, sha256 of the B digests
    #: concatenated).  The digests' SHAs were computed at the commit *before*
    #: the one-buffer vector existed, from a list of ``MSetXorHash`` objects,
    #: and may never move: they are what a node's main hash is taken over.
    #: The encodings are the sparse codec's (a bitmap and the non-empty
    #: buckets only: 1, 16 and 40 of them here), which stores those digests.
    KNOWN = {
        1: (
            45,
            "641c59896538d4fddbd3dd7ad9c2ef01c78ddbf1fbb9bb939163fd5cf165f1bb",
            "cc5817f83217aeda4e2e9fd4c5e1c4fc745c03cde72eff3851f2536608af346d",
        ),
        16: (
            646,
            "3f1245dc7f096554e1638d13d6626c3bade7eaf496f71120122c68c39f0a5d77",
            "ece8454be5650dd00d83095acc2d0e2d2512976ebfa04683e11d0341c57685dd",
        ),
        64: (
            1612,
            "8641873c68b9b407961f2ebd42ea3860b172af20c615d2a1a4efe078621c69d5",
            "4db13a681bc3cd8c16f92895dad7693f3c2e00b5967a982bb329e90a3adb98a8",
        ),
    }
    KNOWN_B1_HEX = (
        "0000000101f564cd4888f5690ede7df6a8f28bf70e16e21ee3"
        "b3a9abfae0f262ecd23e55c80000000000000028"
    )

    @pytest.mark.parametrize("buckets", sorted(KNOWN))
    def test_known_answers(self, buckets):
        vector = scripted_vector(buckets)
        blob = vector.serialize()
        length, blob_sha, digests_sha = self.KNOWN[buckets]
        stored = sum(vector.digest(i) != bytes(40) for i in range(buckets))
        assert len(blob) == length == 4 + -(-buckets // 8) + 40 * stored
        assert hashlib.sha256(blob).hexdigest() == blob_sha
        assert hashlib.sha256(vector.digests()).hexdigest() == digests_sha
        if buckets == 1:
            assert blob.hex() == self.KNOWN_B1_HEX
        assert MSetXorBuckets.deserialize(Prf(b"known-answer-key"), blob).serialize() == blob

    @pytest.mark.parametrize("buckets", [1, 8, 9, 64])
    def test_empty_buckets_are_not_stored(self, buckets):
        vector = MSetXorBuckets.empty(PRF, buckets)
        assert vector.serialize() == Writer().u32(buckets).take() + bytes(-(-buckets // 8))
        vector.update(buckets - 1, None, b"x")
        blob = vector.serialize()
        assert blob[4:-40] == (1 << (buckets - 1)).to_bytes(-(-buckets // 8), "little")
        assert blob[-40:] == vector.digest(buckets - 1)
        assert MSetXorBuckets.deserialize(PRF, blob).digests() == vector.digests()
        vector.update(buckets - 1, b"x", None)  # empty again: stored as never filled
        assert vector.serialize() == Writer().u32(buckets).take() + bytes(-(-buckets // 8))

    def test_each_bucket_is_an_independent_multiset_hash(self):
        vector = MSetXorBuckets.empty(PRF, 4)
        singles = [MSetXorHash(KEY) for _ in range(4)]
        for i, element in enumerate((b"a", b"b", b"c", b"a", b"d", b"e")):
            vector.update(i % 4, None, element)
            singles[i % 4].add(element)
        vector.update(0, b"a", b"z")
        singles[0].update(b"a", b"z")
        vector.update(1, b"b", None)
        singles[1].remove(b"b")
        assert [vector.digest(i) for i in range(4)] == [one.digest() for one in singles]
        assert vector.digests() == b"".join(one.digest() for one in singles)

    @pytest.mark.parametrize("index", [-1, 4, 400])
    def test_a_bucket_index_out_of_range_is_an_error(self, index):
        """A node stored with fewer buckets than the guard now hashes into
        must fail loudly, as indexing a list did — not grow the buffer."""
        vector = MSetXorBuckets.empty(PRF, 4)
        with pytest.raises(IndexError):
            vector.update(index, None, b"x")
        with pytest.raises(IndexError):
            vector.digest(index)
        assert vector.digests() == bytes(4 * 40)

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda blob: blob[:-1], id="truncated"),
            pytest.param(lambda blob: blob[:3], id="truncated-count"),
            pytest.param(lambda blob: blob[:4], id="truncated-bitmap"),
            pytest.param(lambda blob: blob + b"\x00", id="one-trailing-byte"),
            pytest.param(lambda blob: blob[:4] + b"\x07" + blob[5:], id="bit-cleared-under-a-stored-value"),
            # Bit 0 moved to bit 4: the popcount, so the length, still agrees.
            pytest.param(lambda blob: blob[:4] + b"\x1e" + blob[5:], id="bit-past-the-count"),
            pytest.param(lambda blob: blob[:5] + bytes(40) + blob[45:], id="stored-empty-value"),
            pytest.param(
                lambda blob: dense_encoding(MSetXorBuckets.deserialize(PRF, blob)), id="dense-blob"
            ),
            # B = 9 needs a second bitmap byte, B = 3 has no bucket 3.
            pytest.param(lambda blob: b"\x00\x00\x00\x09" + blob[4:], id="count-above-the-body"),
            pytest.param(lambda blob: b"\x00\x00\x00\x03" + blob[4:], id="count-below-the-body"),
        ],
    )
    def test_malformed_encodings_are_rejected(self, mangle):
        blob = scripted_vector(4).serialize()
        assert blob[4] == 0x0F  # all four buckets stored
        MSetXorBuckets.deserialize(PRF, blob)
        with pytest.raises(SerializationError):
            MSetXorBuckets.deserialize(PRF, mangle(blob))

    def test_cost_does_not_follow_the_bucket_count(self):
        """Calls, not seconds: at equal fill (8 non-empty buckets) decode,
        update, digests and encode cost the same at B = 16 and B = 256 —
        a stored node grows with its children, not with B."""

        def cost(buckets):
            vector = MSetXorBuckets.empty(PRF, buckets)
            for index in range(0, buckets, buckets // 8):
                vector.update(index, None, b"child-%d" % index)
            blob = vector.serialize()
            assert len(blob) == 4 + buckets // 8 + 8 * 40
            holder = []
            decode = python_calls(lambda: holder.append(MSetXorBuckets.deserialize(PRF, blob)))
            vector = holder[0]
            return (
                decode,
                python_calls(lambda: vector.update(buckets - 1, b"old", b"new")),
                python_calls(vector.digests),
                python_calls(vector.serialize),
            )

        for small, large in zip(cost(16), cost(256)):
            assert large <= small


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=20), max_size=30))
def test_permutation_invariance(elements):
    forward = MSetXorHash(KEY)
    for element in elements:
        forward.add(element)
    backward = MSetXorHash(KEY)
    for element in reversed(elements):
        backward.add(element)
    assert forward == backward
    assert count(forward) == len(elements)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=20),
    st.data(),
)
def test_add_then_remove_returns_to_empty(elements, data):
    h = MSetXorHash(KEY)
    for element in elements:
        h.add(element)
    order = data.draw(st.permutations(elements))
    for element in order:
        h.remove(element)
    assert h == MSetXorHash(KEY)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=100), st.binary(max_size=300))
def test_prf_is_hmac_sha256(key, message):
    """From precomputed pads, for keys shorter and longer than a block."""
    assert Prf(key)(message) == hmac.digest(key, message, "sha256")


#: One step on a bucket vector: (bucket index, element removed, element added).
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.none() | st.binary(min_size=1, max_size=12),
        st.none() | st.binary(min_size=1, max_size=12),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), _STEPS)
def test_in_place_updates_equal_the_reference(buckets, steps):
    """Any add/remove sequence — a removal of an element never added
    included — leaves every bucket at the one-value reference's digest,
    and the vector survives its codec."""
    vector = MSetXorBuckets.empty(PRF, buckets)
    reference = [MSetXorHash(KEY) for _ in range(buckets)]
    for index, old, new in steps:
        vector.update(index % buckets, old, new)
        reference[index % buckets].update(old, new)
    assert vector.digests() == b"".join(one.digest() for one in reference)
    restored = MSetXorBuckets.deserialize(PRF, vector.serialize())
    assert restored.digests() == vector.digests()
    assert restored.serialize() == vector.serialize()


def scanned_encoding(vector: MSetXorBuckets) -> bytes:
    """The sparse codec as it was before the vector kept its bitmap: every
    write unpacked all B values and rebuilt the bitmap from them."""
    empty = bytes(40)
    values = [vector.digest(i) for i in range(len(vector))]
    bitmap = sum(1 << i for i, value in enumerate(values) if value != empty)
    head = Writer().u32(len(values)).take() + bitmap.to_bytes(-(-len(values) // 8), "little")
    return head + b"".join(value for value in values if value != empty)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.data())
def test_the_kept_bitmap_encodes_what_a_scan_of_the_values_did(buckets, data):
    """Node bytes stay bit-identical whatever the update order, a bucket
    emptied again — by removing what it holds — included, after a copy and
    after a decode."""
    vector = MSetXorBuckets.empty(PRF, buckets)
    held: list[list[bytes]] = [[] for _ in range(buckets)]
    for _ in range(data.draw(st.integers(0, 60))):
        index = data.draw(st.integers(0, buckets - 1))
        if held[index] and data.draw(st.booleans()):
            vector.update(index, held[index].pop(), None)  # may empty the bucket again
        else:
            element = data.draw(st.binary(min_size=1, max_size=8))
            vector.update(index, None, element)
            held[index].append(element)
        assert vector.serialize() == scanned_encoding(vector)
    assert vector.copy().serialize() == scanned_encoding(vector)
    decoded = MSetXorBuckets.deserialize(PRF, vector.serialize())
    decoded.update(0, None, b"after-decode")
    vector.update(0, None, b"after-decode")
    assert decoded.serialize() == vector.serialize() == scanned_encoding(vector)


def test_a_bucket_emptied_again_leaves_the_encoding():
    vector = MSetXorBuckets.empty(PRF, 9)
    vector.update(8, None, b"x")
    vector.update(3, None, b"y")
    vector.update(8, b"x", None)
    assert vector.serialize() == scanned_encoding(vector) == Writer().u32(9).take() + b"\x08\x00" + vector.digest(3)
