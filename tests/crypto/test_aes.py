"""AES block cipher against the FIPS-197 known-answer vectors."""

import pytest

from repro.errors import KeyError_
from tests.support.aes import SBOX, Aes


class TestKnownAnswers:
    def test_fips197_aes128(self):
        cipher = Aes(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        out = cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        out = Aes(key).encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        out = Aes(key).encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_all_zero_key_vector(self):
        # Classic NIST vector: AES-128(0^128, 0^128).
        assert Aes(bytes(16)).encrypt_block(bytes(16)).hex() == (
            "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )


class TestSbox:
    def test_generated_sbox_matches_reference_corners(self):
        # Spot-check the computed S-box against published values.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestValidation:
    def test_bad_key_size(self):
        with pytest.raises(KeyError_):
            Aes(b"short")

    def test_bad_block_size(self):
        with pytest.raises(KeyError_):
            Aes(bytes(16)).encrypt_block(b"not 16 bytes!")

    def test_deterministic(self):
        cipher = Aes(bytes(range(16)))
        block = bytes(range(16, 32))
        assert cipher.encrypt_block(block) == cipher.encrypt_block(block)

    def test_different_keys_differ(self):
        block = bytes(16)
        assert Aes(bytes(16)).encrypt_block(block) != Aes(b"\x01" + bytes(15)).encrypt_block(block)
