"""The PAE contract, for both backends: round trips, tamper, properties."""

import hashlib
import secrets
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pae import (
    KEY_SIZE,
    AesGcmPae,
    HmacStreamPae,
)
from repro.errors import IntegrityError, KeyError_

KEY = bytes(range(KEY_SIZE))
BACKENDS = [HmacStreamPae(), AesGcmPae()]


@pytest.fixture(params=BACKENDS, ids=["hmac-stream", "aes-gcm"])
def pae(request):
    return request.param


class TestContract:
    def test_round_trip(self, pae):
        blob = pae.encrypt(KEY, b"the plaintext", b"the aad")
        assert pae.decrypt(KEY, blob, b"the aad") == b"the plaintext"

    def test_empty_plaintext(self, pae):
        assert pae.decrypt(KEY, pae.encrypt(KEY, b"")) == b""

    def test_probabilistic(self, pae):
        # Fresh random IV per encryption: same input, different ciphertext.
        assert pae.encrypt(KEY, b"v") != pae.encrypt(KEY, b"v")

    def test_deterministic_with_fixed_iv(self, pae):
        iv = bytes(pae.iv_size)
        assert pae.encrypt_with_iv(KEY, iv, b"v") == pae.encrypt_with_iv(KEY, iv, b"v")

    def test_overhead_is_declared(self, pae):
        blob = pae.encrypt(KEY, b"x" * 100)
        assert len(blob) == 100 + pae.overhead

    def test_wrong_key_rejected(self, pae):
        blob = pae.encrypt(KEY, b"secret")
        with pytest.raises(IntegrityError):
            pae.decrypt(bytes(KEY_SIZE), blob)

    def test_wrong_aad_rejected(self, pae):
        blob = pae.encrypt(KEY, b"secret", b"aad1")
        with pytest.raises(IntegrityError):
            pae.decrypt(KEY, blob, b"aad2")

    def test_bitflip_anywhere_rejected(self, pae):
        blob = pae.encrypt(KEY, b"twelve bytes")
        for position in (0, pae.iv_size, len(blob) // 2, len(blob) - 1):
            tampered = bytearray(blob)
            tampered[position] ^= 0x80
            with pytest.raises(IntegrityError):
                pae.decrypt(KEY, bytes(tampered))

    def test_truncated_rejected(self, pae):
        with pytest.raises(IntegrityError):
            pae.decrypt(KEY, b"\x00" * (pae.overhead - 1))

    def test_bad_key_size(self, pae):
        with pytest.raises(KeyError_):
            pae.encrypt(b"short", b"data")

    def test_bad_iv_size(self, pae):
        with pytest.raises(KeyError_):
            pae.encrypt_with_iv(KEY, b"short", b"data")

    def test_ciphertext_hides_plaintext(self, pae):
        blob = pae.encrypt(KEY, b"A" * 64)
        assert b"A" * 8 not in blob


class TestCrossBackend:
    def test_blobs_are_not_interchangeable(self):
        fast, gcm = BACKENDS
        blob = fast.encrypt(KEY, b"data")
        with pytest.raises(IntegrityError):
            gcm.decrypt(KEY, blob)


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=2000), st.binary(max_size=64))
def test_hmac_stream_round_trip_property(plaintext, aad):
    pae = HmacStreamPae()
    assert pae.decrypt(KEY, pae.encrypt(KEY, plaintext, aad), aad) == plaintext


@settings(max_examples=10, deadline=None)
@given(st.binary(max_size=200), st.binary(max_size=32))
def test_aes_gcm_round_trip_property(plaintext, aad):
    pae = AesGcmPae()
    assert pae.decrypt(KEY, pae.encrypt(KEY, plaintext, aad), aad) == plaintext


def test_large_payload_round_trip():
    pae = HmacStreamPae()
    data = secrets.token_bytes(3 * 1024 * 1024)
    assert pae.decrypt(KEY, pae.encrypt(KEY, data)) == data


class TestKnownAnswers:
    """Blobs computed by the pre-keyed-context implementation (commit
    e3ccc33): the context cache must not change a single output byte."""

    IV = bytes(range(16, 32))

    def test_empty_plaintext_and_aad(self):
        assert HmacStreamPae().encrypt_with_iv(KEY, self.IV, b"").hex() == (
            "101112131415161718191a1b1c1d1e1f"
            "e3b7cfcef0f7f7a65f812da076f15c7b7c4eb47aa7d5466d92dc64befd0bdec4"
        )

    def test_short_plaintext_with_aad(self):
        blob = HmacStreamPae().encrypt_with_iv(KEY, self.IV, b"hello world", b"aad-1")
        assert blob.hex() == (
            "101112131415161718191a1b1c1d1e1f"
            "1636f3168b227aeba626e8"
            "50d481618f9c57b3e629029748003e3223cb1a4df8f8342601fd5270488351a2"
        )

    def test_chunk_sized_plaintext(self):
        blob = HmacStreamPae().encrypt_with_iv(
            bytes(16), bytes(16), bytes(range(256)) * 17, b"pfs-meta\x00/a/b"
        )
        assert len(blob) == 4400
        assert hashlib.sha256(blob).hexdigest() == (
            "35ba951fa0550e6f71fd072446e797f7e363cc41f56b800e2aff74a81890fc03"
        )

    def test_warm_context_gives_the_same_blob(self):
        pae = HmacStreamPae()
        cold = pae.encrypt_with_iv(KEY, self.IV, b"hello world", b"aad-1")
        assert pae.encrypt_with_iv(KEY, self.IV, b"hello world", b"aad-1") == cold
        assert pae.decrypt(KEY, cold, b"aad-1") == b"hello world"


class TestContextCache:
    def _keys(self, count):
        return [index.to_bytes(KEY_SIZE, "big") for index in range(count)]

    def test_eviction_never_serves_another_keys_context(self, pae):
        keys = self._keys(pae._CACHE_LIMIT + 9)
        blobs = [pae.encrypt(key, b"owned by %d" % index) for index, key in enumerate(keys)]
        assert len(pae._cache) <= pae._CACHE_LIMIT
        assert keys[0] not in pae._cache  # the oldest went first
        for index, key in enumerate(keys):  # evicted keys rebuild their own context
            assert pae.decrypt(key, blobs[index]) == b"owned by %d" % index
            with pytest.raises(IntegrityError):
                pae.decrypt(key, blobs[index - 1])
        assert len(pae._cache) <= pae._CACHE_LIMIT

    def test_interleaved_keys_decrypt_only_their_own_blobs(self, pae):
        a, b = self._keys(2)
        blobs_a, blobs_b = [], []
        for round_ in range(4):
            blobs_a.append(pae.encrypt(a, b"a%d" % round_, b"aad"))
            blobs_b.append(pae.encrypt(b, b"b%d" % round_, b"aad"))
        for round_ in range(4):
            assert pae.decrypt(a, blobs_a[round_], b"aad") == b"a%d" % round_
            assert pae.decrypt(b, blobs_b[round_], b"aad") == b"b%d" % round_
            with pytest.raises(IntegrityError):
                pae.decrypt(a, blobs_b[round_], b"aad")
            with pytest.raises(IntegrityError):
                pae.decrypt(b, blobs_a[round_], b"aad")

    def test_concurrent_misses_keep_the_cache_bounded_and_correct(self):
        """More workers than cores, each cycling through more keys than the
        cache holds: every round trip must still come back intact."""
        pae = HmacStreamPae()
        failures: list[str] = []

        def worker(offset: int) -> None:
            for index in range(300):
                key = ((offset * 7 + index) % 150).to_bytes(KEY_SIZE, "big")
                text = b"%d:%d" % (offset, index)
                try:
                    if pae.decrypt(key, pae.encrypt(key, text)) != text:
                        failures.append(f"wrong plaintext for {offset}:{index}")
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert len(pae._cache) <= pae._CACHE_LIMIT
