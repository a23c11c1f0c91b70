"""RSA key generation, signing, verification, serialization."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.errors import CryptoError, KeyError_
from repro.util.serialization import Reader, Writer
from tests.support import rsa_ref
from tests.support.primes import is_probable_prime

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


# A consistent 384-bit key: OpenSSL loads it, but its modulus is too small
# for a SHA-256 PKCS#1 v1.5 signature.
SMALL_KEY = bytes.fromhex(
    "00000030bc8204648b9e98836ad58b3dea6d3ee3c31d0e97b70a19fba563b30c37067cc9"
    "757118cb5bb5350e4920df427596b5e9000000030100010000003009fecee2d1f067dfd803"
    "58adc0c76825458c3de0d788c695d4d2b3e5854d1469c79f058d51b0c227a488b78514dae3"
    "8100000018c11c6b63bc9fac8af32f89383144edd4ab1f4c60e3eea4b100000018f9e5d61e"
    "1cf1ebf43f73f00e657119982854856a1fb152b9"
)


@pytest.fixture(scope="module")
def key() -> rsa.RsaPrivateKey:
    return rsa.generate_keypair(1024)


def private_blob(n: int, e: int, d: int, p: int, q: int) -> bytes:
    w = Writer()
    for value in (n, e, d, p, q):
        w.bytes(rsa._int_to_bytes(value))
    return w.take()


# This class tests key generation itself, so it gets the real function
# (tests/support/keypool.py).
@pytest.mark.fresh_keys
class TestKeyGeneration:
    def test_modulus_size(self, key):
        assert key.n.bit_length() == 1024

    def test_factors_are_prime(self, key):
        assert is_probable_prime(key.p)
        assert is_probable_prime(key.q)
        assert key.p * key.q == key.n

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_generated_key_survives_validated_load(self, bits):
        generated = rsa.generate_keypair(bits)
        assert generated.n.bit_length() == bits
        assert generated.p * generated.q == generated.n
        assert generated.e == rsa.PUBLIC_EXPONENT == 65537
        loaded = rsa.RsaPrivateKey.deserialize(generated.serialize())
        assert loaded == generated
        assert rsa.sign(loaded, b"x") == rsa.sign(generated, b"x")

    def test_too_small_rejected(self):
        """OpenSSL generates nothing below 1024 bits."""
        with pytest.raises(KeyError_):
            rsa.generate_keypair(1023)


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
        assert not rsa.verify(key.public_key, b"m", key.n.to_bytes(128, "big"))

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
        assert rsa.verify(restored.public_key, b"x", rsa.sign(restored, b"x"))

    @pytest.mark.parametrize("shift", [8, 16])
    def test_d_is_encoded_at_the_modulus_width(self, key, shift):
        """A d with leading zero bytes (about 0.5 % of OpenSSL keys) encodes
        as long as any other, so the sealed key's length does not depend on
        the key; parsing gives the same d back."""
        short = dataclasses.replace(key, d=key.d >> shift)
        blob = short.serialize()
        assert len(blob) == len(key.serialize())
        reader = Reader(blob)
        n, _, d = (reader.bytes() for _ in range(3))
        assert len(d) == len(n) and int.from_bytes(d, "big") == short.d


class TestAgainstReference:
    def test_openssl_matches_the_pure_python_scheme(self):
        """OpenSSL's PKCS#1 v1.5 signature is byte-identical to the
        hand-written EMSA-PKCS1-v1_5 one, and each side verifies the other."""
        keys = [rsa.generate_keypair(1024) for _ in range(4)]

        @settings(max_examples=40, deadline=None)
        @given(key=st.sampled_from(keys), message=st.binary(max_size=4096))
        def check(key, message):
            signature = rsa.sign(key, message)
            assert signature == rsa_ref.sign(key, message)
            assert rsa_ref.verify(key.public_key, message, signature)
            assert rsa.verify(key.public_key, message, rsa_ref.sign(key, message))

        check()


class TestHostileKeyMaterial:
    """Keys arrive in certificates, quotes and key files a peer or the host
    chose; what OpenSSL refuses is a typed error or a failed check."""

    @pytest.mark.parametrize(
        "refuse", rsa_ref.REFUSED_PUBLIC_KEYS.values(), ids=rsa_ref.REFUSED_PUBLIC_KEYS.keys()
    )
    def test_verify_is_false_for_a_refused_public_key(self, key, refuse):
        assert not rsa.verify(refuse(key), b"m", rsa.sign(key, b"m"))

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda k: (k.n, k.e, k.d + 2, k.p, k.q),
            lambda k: (k.n + 2, k.e, k.d, k.p, k.q),
            lambda k: (k.p * k.p, k.e, k.d, k.p, k.p),
            lambda k: (k.n, k.e, k.d, 1, k.q),
            lambda k: (k.n, k.e, k.d, k.p, 0),
            lambda k: (k.n, 0, k.d, k.p, k.q),
            lambda k: (k.n, 3, k.d, k.p, k.q),
            lambda k: (0, 0, 0, 0, 0),
        ],
        ids=["d-off", "n-off", "p-equals-q", "p=1", "q=0", "e=0", "e-mismatch", "all-zero"],
    )
    def test_inconsistent_private_key_is_a_key_error(self, key, reshape):
        with pytest.raises(KeyError_):
            rsa.RsaPrivateKey.deserialize(private_blob(*reshape(key)))

    def test_modulus_too_small_to_sign_is_a_crypto_error(self):
        small = rsa.RsaPrivateKey.deserialize(SMALL_KEY)
        with pytest.raises(CryptoError):
            rsa.sign(small, b"m")
