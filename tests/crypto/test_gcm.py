"""AES-GCM against the NIST GCM test vectors, plus tamper detection."""

import pytest

from repro.errors import IntegrityError, KeyError_
from tests.support.gcm import AesGcm

KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestNistVectors:
    def test_case_1_empty(self):
        out = AesGcm(bytes(16)).encrypt(bytes(12), b"")
        assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_single_block(self):
        out = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
        assert out[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert out[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_3_four_blocks(self):
        out = AesGcm(KEY).encrypt(IV, PLAINTEXT)
        assert out[:-16].hex() == (
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        )
        assert out[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        out = AesGcm(KEY).encrypt(IV, PLAINTEXT[:-4], AAD)
        assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_aes256_gcm_vector(self):
        key = bytes.fromhex(
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
        )
        out = AesGcm(key).encrypt(IV, PLAINTEXT)
        assert out[-16:].hex() == "b094dac5d93471bdec1a502270e3cc6c"


class TestRoundTripAndTamper:
    def test_round_trip(self):
        gcm = AesGcm(KEY)
        blob = gcm.encrypt(IV, PLAINTEXT, AAD)
        assert gcm.decrypt(IV, blob, AAD) == PLAINTEXT

    def test_empty_plaintext_round_trip(self):
        gcm = AesGcm(KEY)
        assert gcm.decrypt(IV, gcm.encrypt(IV, b"")) == b""

    def test_tampered_ciphertext_rejected(self):
        gcm = AesGcm(KEY)
        blob = bytearray(gcm.encrypt(IV, PLAINTEXT))
        blob[0] ^= 1
        with pytest.raises(IntegrityError):
            gcm.decrypt(IV, bytes(blob))

    def test_tampered_tag_rejected(self):
        gcm = AesGcm(KEY)
        blob = bytearray(gcm.encrypt(IV, PLAINTEXT))
        blob[-1] ^= 1
        with pytest.raises(IntegrityError):
            gcm.decrypt(IV, bytes(blob))

    def test_wrong_aad_rejected(self):
        gcm = AesGcm(KEY)
        blob = gcm.encrypt(IV, PLAINTEXT, AAD)
        with pytest.raises(IntegrityError):
            gcm.decrypt(IV, blob, b"different aad")

    def test_wrong_nonce_rejected(self):
        gcm = AesGcm(KEY)
        blob = gcm.encrypt(IV, PLAINTEXT)
        with pytest.raises(IntegrityError):
            gcm.decrypt(bytes(12), blob)

    def test_truncated_blob_rejected(self):
        gcm = AesGcm(KEY)
        with pytest.raises(IntegrityError):
            gcm.decrypt(IV, b"short")

    def test_non_block_aligned_lengths(self):
        gcm = AesGcm(KEY)
        for size in (1, 15, 17, 31, 100):
            data = bytes(range(size % 256)) * (size // max(size % 256, 1) + 1)
            data = data[:size]
            assert gcm.decrypt(IV, gcm.encrypt(IV, data)) == data

    def test_bad_nonce_size(self):
        with pytest.raises(KeyError_):
            AesGcm(KEY).encrypt(b"short", b"data")
