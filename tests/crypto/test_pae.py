"""The PAE contract, for the enclave's AES-128-GCM backend and the
pure-Python reference in tests/support: round trips, tamper, properties,
and byte-for-byte agreement between the two."""

import hashlib
import os
import random
import secrets
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.pae import (
    KEY_SIZE,
    OpenSslGcmPae,
    default_pae,
)
from repro.errors import IntegrityError, KeyError_
from tests.support.gcm import AesGcmPae

KEY = bytes(range(KEY_SIZE))
BACKENDS = [OpenSslGcmPae(), AesGcmPae()]
OPENSSL, REFERENCE = BACKENDS


@pytest.fixture(params=BACKENDS, ids=["openssl-gcm", "aes-gcm"])
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


def _pseudo(length: int) -> bytes:
    return random.Random(length).randbytes(length)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=4097), st.binary(max_size=64), st.binary(min_size=12, max_size=12))
@example(b"", b"", bytes(12))
@example(b"\x01", b"a" * 64, bytes(12))
@example(_pseudo(15), b"", bytes(range(12)))
@example(_pseudo(16), b"aad", bytes(range(12)))
@example(_pseudo(17), b"x" * 17, bytes(range(12)))
@example(_pseudo(4096), b"pfs-meta\x00/a/b", bytes(range(12)))
@example(_pseudo(65536), b"", bytes(range(12)))
@example(_pseudo(65537), b"t" * 64, bytes(range(12)))
def test_openssl_matches_the_reference_byte_for_byte(plaintext, aad, iv):
    blob = OPENSSL.encrypt_with_iv(KEY, iv, plaintext, aad)
    assert blob == REFERENCE.encrypt_with_iv(KEY, iv, plaintext, aad)
    assert blob[: OPENSSL.iv_size] == iv and len(blob) == len(plaintext) + OPENSSL.overhead
    # Interop under fresh random IVs: each backend opens the other's blobs.
    assert REFERENCE.decrypt(KEY, OPENSSL.encrypt(KEY, plaintext, aad), aad) == plaintext
    assert OPENSSL.decrypt(KEY, REFERENCE.encrypt(KEY, plaintext, aad), aad) == plaintext


@settings(max_examples=10, deadline=None)
@given(st.binary(max_size=200), st.binary(max_size=32))
def test_aes_gcm_round_trip_property(plaintext, aad):
    pae = AesGcmPae()
    assert pae.decrypt(KEY, pae.encrypt(KEY, plaintext, aad), aad) == plaintext


def test_large_payload_round_trip():
    pae = OpenSslGcmPae()
    data = secrets.token_bytes(3 * 1024 * 1024)
    assert pae.decrypt(KEY, pae.encrypt(KEY, data)) == data


_NIST_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
_NIST_IV = bytes.fromhex("cafebabefacedbaddecaf888")
_NIST_PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
_NIST_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


@pytest.mark.parametrize(
    "key, iv, plaintext, aad, ciphertext, tag",
    [
        (bytes(16), bytes(12), b"", b"", "", "58e2fccefa7e3061367f1d57a4e7455a"),
        (
            bytes(16), bytes(12), bytes(16), b"",
            "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf",
        ),
        (
            _NIST_KEY, _NIST_IV, _NIST_PLAINTEXT, b"",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        ),
        (
            _NIST_KEY, _NIST_IV, _NIST_PLAINTEXT[:-4], _NIST_AAD,
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        ),
    ],
    ids=["case-1", "case-2", "case-3", "case-4"],
)
def test_nist_sp800_38d_vectors(key, iv, plaintext, aad, ciphertext, tag):
    blob = OPENSSL.encrypt_with_iv(key, iv, plaintext, aad)
    assert blob == iv + bytes.fromhex(ciphertext) + bytes.fromhex(tag)
    assert OPENSSL.decrypt(key, blob, aad) == plaintext


class TestKnownAnswers:
    """Fixed blobs of the default backend, computed by the pure-Python
    reference: the layout ``iv || ciphertext || tag`` and the per-key
    context must not change a single output byte."""

    IV = bytes(range(16, 28))

    def test_empty_plaintext_and_aad(self):
        assert default_pae().encrypt_with_iv(KEY, self.IV, b"").hex() == (
            "101112131415161718191a1b" "0ed7259add1011e159d00e61b1925410"
        )

    def test_short_plaintext_with_aad(self):
        blob = default_pae().encrypt_with_iv(KEY, self.IV, b"hello world", b"aad-1")
        assert blob.hex() == (
            "101112131415161718191a1b"
            "ac4b6fc3606fc18065b139"
            "c942dff8090b96419491931bd9896cec"
        )

    def test_chunk_sized_plaintext(self):
        blob = default_pae().encrypt_with_iv(
            bytes(16), bytes(12), bytes(range(256)) * 17, b"pfs-meta\x00/a/b"
        )
        assert len(blob) == 4380
        assert hashlib.sha256(blob).hexdigest() == (
            "7b6f0508a78f6f8047c029f3f5a07dc55bfb799b9d4088be547b3844b6057b89"
        )

    def test_warm_context_gives_the_same_blob(self):
        pae = OpenSslGcmPae()
        cold = pae.encrypt_with_iv(KEY, self.IV, b"hello world", b"aad-1")
        assert pae.encrypt_with_iv(KEY, self.IV, b"hello world", b"aad-1") == cold
        assert pae.decrypt(KEY, cold, b"aad-1") == b"hello world"


class TestBatch:
    """``encrypt_many``/``decrypt_many``: OpenSSL's batch entries against the
    reference, which inherits the base class's per-blob loops."""

    TEXTS = [_pseudo(size) for size in (0, 1, 4096, 4096, 100)]
    AADS = [b"/f\x00" + index.to_bytes(4, "big") for index in range(5)]

    @pytest.mark.parametrize("sealer, opener", [(OPENSSL, REFERENCE), (REFERENCE, OPENSSL)], ids=["openssl-to-ref", "ref-to-openssl"])
    def test_batch_blobs_open_under_the_other_backend(self, sealer, opener):
        blobs = sealer.encrypt_many(KEY, self.TEXTS, self.AADS)
        assert [len(blob) for blob in blobs] == [len(text) + sealer.overhead for text in self.TEXTS]
        assert opener.decrypt_many(KEY, blobs, self.AADS) == self.TEXTS
        assert [opener.decrypt(KEY, blob, aad) for blob, aad in zip(blobs, self.AADS)] == self.TEXTS

    def test_ivs_within_a_batch_are_distinct(self, pae):
        blobs = pae.encrypt_many(KEY, [b"same"] * 256, [b""] * 256)
        assert len({blob[: pae.iv_size] for blob in blobs}) == 256

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_one_bad_tag_fails_the_batch(self, pae, bad):
        blobs = pae.encrypt_many(KEY, self.TEXTS, self.AADS)
        blobs[bad] = blobs[bad][:-1] + bytes([blobs[bad][-1] ^ 1])
        with pytest.raises(IntegrityError):
            pae.decrypt_many(KEY, blobs, self.AADS)

    def test_a_short_blob_fails_the_batch(self, pae):
        blobs = pae.encrypt_many(KEY, self.TEXTS, self.AADS)
        blobs[3] = blobs[3][:5]
        with pytest.raises(IntegrityError):
            pae.decrypt_many(KEY, blobs, self.AADS)

    def test_empty_batch(self, pae):
        assert pae.encrypt_many(KEY, [], []) == [] and pae.decrypt_many(KEY, [], []) == []


class TestDefaultBackend:
    def test_default_is_openssl_gcm(self):
        assert type(default_pae()) is OpenSslGcmPae

    def test_encrypt_is_only_defined_on_the_base(self):
        # The e2e ledger wraps Pae.encrypt; an override would hide every call.
        assert "encrypt" not in vars(type(default_pae()))

    def test_server_import_leaves_numpy_out(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = "import sys, repro.core.server; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


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
        pae = OpenSslGcmPae()
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
