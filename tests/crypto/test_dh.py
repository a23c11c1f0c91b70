"""X25519 key agreement: the RFC 7748 vector, agreement, validation."""

import pytest
from cryptography.hazmat.primitives.asymmetric import x25519

from repro.crypto import dh
from repro.errors import CryptoError

# RFC 7748 section 6.1.
ALICE_PRIVATE = bytes.fromhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
ALICE_PUBLIC = bytes.fromhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
BOB_PRIVATE = bytes.fromhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
BOB_PUBLIC = bytes.fromhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
SHARED = bytes.fromhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")

P = 2**255 - 19
# u-coordinates of low order, canonical and not: their shared secret is all zero.
LOW_ORDER = [
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    P - 1,
    P,
    P + 1,
]


def u(value: int) -> bytes:
    """A u-coordinate in the 32-byte little-endian encoding of RFC 7748."""
    return value.to_bytes(32, "little")


def keypair(private: bytes) -> dh.DhKeyPair:
    return dh.DhKeyPair(x25519.X25519PrivateKey.from_private_bytes(private))


class TestGroup:
    def test_rfc7748_alice_and_bob(self):
        alice, bob = keypair(ALICE_PRIVATE), keypair(BOB_PRIVATE)
        assert alice.public_bytes() == ALICE_PUBLIC
        assert bob.public_bytes() == BOB_PUBLIC
        assert dh.shared_secret(alice, BOB_PUBLIC) == SHARED
        assert dh.shared_secret(bob, ALICE_PUBLIC) == SHARED

    def test_size_bytes(self):
        assert len(dh.generate_keypair().public_bytes()) == 32


class TestAgreement:
    def test_shared_secret_agrees(self):
        a = dh.generate_keypair()
        b = dh.generate_keypair()
        assert dh.shared_secret(a, b.public_bytes()) == dh.shared_secret(b, a.public_bytes())

    def test_distinct_sessions_distinct_secrets(self):
        a1, a2 = dh.generate_keypair(), dh.generate_keypair()
        b = dh.generate_keypair()
        assert dh.shared_secret(a1, b.public_bytes()) != dh.shared_secret(a2, b.public_bytes())

    def test_secret_has_fixed_width(self):
        a, b = dh.generate_keypair(), dh.generate_keypair()
        assert len(dh.shared_secret(a, b.public_bytes())) == 32


class TestValidation:
    @pytest.mark.parametrize("bad", [0, 1])
    def test_degenerate_low_values_rejected(self, bad):
        with pytest.raises(CryptoError):
            dh.shared_secret(dh.generate_keypair(), u(bad))

    def test_p_minus_one_rejected(self):
        """p - 1 is the point of order 2."""
        with pytest.raises(CryptoError):
            dh.shared_secret(dh.generate_keypair(), u(P - 1))

    def test_out_of_range_rejected(self):
        """p itself is a non-canonical encoding of 0."""
        with pytest.raises(CryptoError):
            dh.shared_secret(dh.generate_keypair(), u(P))

    def test_shared_secret_validates_peer(self):
        kp = dh.generate_keypair()
        for bad in LOW_ORDER:
            with pytest.raises(CryptoError):
                dh.shared_secret(kp, u(bad))

    @pytest.mark.parametrize("width", [0, 3, 31, 33, 255, 257, 300])
    def test_wrong_width_rejected(self, width):
        """Only the 32-byte encoding public_bytes() emits parses."""
        kp = dh.generate_keypair()
        with pytest.raises(CryptoError):
            dh.shared_secret(kp, (5).to_bytes(width, "little") if width else b"")
        assert len(dh.shared_secret(kp, u(5))) == 32

    def test_padded_real_value_rejected(self):
        kp, peer = dh.generate_keypair(), dh.generate_keypair()
        with pytest.raises(CryptoError):
            dh.shared_secret(kp, peer.public_bytes() + b"\x00")
        with pytest.raises(CryptoError):
            dh.shared_secret(kp, peer.public_bytes()[1:])
