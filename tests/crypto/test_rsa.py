"""RSA key generation, signing, verification, serialization."""

import pytest

from repro.crypto import rsa
from repro.crypto.primes import is_probable_prime
from repro.errors import KeyError_


@pytest.fixture(scope="module")
def key() -> rsa.RsaPrivateKey:
    return rsa.generate_keypair(1024)


class TestKeyGeneration:
    def test_modulus_size(self, key):
        assert key.n.bit_length() == 1024
        assert key.size_bytes == 128

    def test_factors_are_prime(self, key):
        assert is_probable_prime(key.p)
        assert is_probable_prime(key.q)
        assert key.p * key.q == key.n

    def test_crt_parameters(self, key):
        assert key.d_p == key.d % (key.p - 1)
        assert key.d_q == key.d % (key.q - 1)
        assert (key.q_inv * key.q) % key.p == 1

    def test_too_small_rejected(self):
        with pytest.raises(KeyError_):
            rsa.generate_keypair(256)


class TestSignatures:
    def test_sign_verify(self, key):
        message = b"the quick brown fox"
        signature = rsa.sign(key, message)
        assert rsa.verify(key.public_key, message, signature)

    def test_signature_is_deterministic(self, key):
        assert rsa.sign(key, b"m") == rsa.sign(key, b"m")

    def test_wrong_message_rejected(self, key):
        signature = rsa.sign(key, b"message one")
        assert not rsa.verify(key.public_key, b"message two", signature)

    def test_tampered_signature_rejected(self, key):
        signature = bytearray(rsa.sign(key, b"message"))
        signature[0] ^= 1
        assert not rsa.verify(key.public_key, b"message", bytes(signature))

    def test_wrong_key_rejected(self, key):
        other = rsa.generate_keypair(1024)
        signature = rsa.sign(key, b"message")
        assert not rsa.verify(other.public_key, b"message", signature)

    def test_wrong_length_signature_rejected(self, key):
        assert not rsa.verify(key.public_key, b"m", b"too short")

    def test_signature_out_of_range_rejected(self, key):
        oversized = key.n.to_bytes(key.size_bytes + 1, "big")[1:]
        assert not rsa.verify(key.public_key, b"m", oversized)

    def test_empty_message(self, key):
        assert rsa.verify(key.public_key, b"", rsa.sign(key, b""))


class TestSerialization:
    def test_public_key_round_trip(self, key):
        blob = key.public_key.serialize()
        assert rsa.RsaPublicKey.deserialize(blob) == key.public_key

    def test_private_key_round_trip(self, key):
        restored = rsa.RsaPrivateKey.deserialize(key.serialize())
        assert restored.n == key.n
        assert restored.d == key.d
        assert restored.q_inv == key.q_inv  # CRT params recomputed
        assert rsa.verify(restored.public_key, b"x", rsa.sign(restored, b"x"))

    def test_fingerprint_is_stable_and_distinct(self, key):
        other = rsa.generate_keypair(1024)
        assert key.public_key.fingerprint() == key.public_key.fingerprint()
        assert key.public_key.fingerprint() != other.public_key.fingerprint()
