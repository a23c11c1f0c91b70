"""RSA key generation, signing, verification, serialization."""

import hashlib

import pytest

from repro.crypto import rsa
from repro.crypto.primes import is_probable_prime
from repro.errors import KeyError_

# This module tests key generation itself, so it gets the real function
# (tests/support/keypool.py).
pytestmark = pytest.mark.fresh_keys

# A 512-bit key generated once, and what the commit before docs/PERF.md §10
# signed with it: signing and verification are not to change.
FIXED_KEY = bytes.fromhex(
    "00000040bb72129ae3981ab0ec4fe8db7ab3ada88dc3a346c97461b53c57d12b"
    "0cc43dbcf94e83726e568db1076d8bf6581f80eac5b709cd85af596429ff4a63"
    "e07ab075000000030100010000004025b9b1b0e6b98835af79edbdae96570f23"
    "690a8586aa1bb8242af0781f9ba768f69c5bf9fecb8ab52bd90c9e6db0ddcc9e"
    "7ce93c2e7607a35dca94b38a14188900000020f08451f3b01aaccd139f0b0621"
    "dc296116b06c346eac0b832390a8f4ddd59d2b00000020c7832574710909988e"
    "f47f29b1c1289e228431e5cc7ac82a48cf8c3cb02058df"
)
FIXED_MESSAGE = b"SeGShare known-answer message"
FIXED_SIGNATURE = bytes.fromhex(
    "14216960d20cdee54fbc704b70da44b92b308e56ae5e187e760e19d458b03575"
    "5df2a33ea330ac34721a39b0346766512b5d590d126c0fe68df8f97432bd0159"
)
FIXED_FINGERPRINT = "97db30a33c5136906e0222c12a218fb3097dfa70713d51a525e6660ee8cb11ff"


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

    def test_smallest_modulus_has_prime_factors(self):
        # 512 bits is the smallest modulus accepted: 256-bit primes, the
        # smallest size the 12-round average-case bound covers.
        small = rsa.generate_keypair(512)
        assert small.n.bit_length() == 512
        assert small.p.bit_length() == small.q.bit_length() == 256
        assert is_probable_prime(small.p) and is_probable_prime(small.q)


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

    def test_known_answer(self):
        fixed = rsa.RsaPrivateKey.deserialize(FIXED_KEY)
        assert fixed.serialize() == FIXED_KEY
        # The digest pins the canonical public-key encoding.
        assert hashlib.sha256(fixed.public_key.serialize()).hexdigest() == FIXED_FINGERPRINT
        assert rsa.sign(fixed, FIXED_MESSAGE) == FIXED_SIGNATURE
        assert rsa.verify(fixed.public_key, FIXED_MESSAGE, FIXED_SIGNATURE)


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
