"""Finite-field Diffie–Hellman: agreement, validation, group sanity."""

import pytest

from repro.crypto import dh
from repro.crypto.primes import is_probable_prime
from repro.errors import CryptoError


class TestGroup:
    def test_rfc3526_prime_is_prime(self):
        assert is_probable_prime(dh.GROUP14.p)

    def test_group14_is_a_safe_prime_group(self):
        assert is_probable_prime((dh.GROUP14.p - 1) // 2)

    def test_size_bytes(self):
        assert dh.GROUP14.size_bytes == 256


class TestAgreement:
    def test_shared_secret_agrees(self):
        a = dh.generate_keypair()
        b = dh.generate_keypair()
        assert dh.shared_secret(a, b.public) == dh.shared_secret(b, a.public)

    def test_distinct_sessions_distinct_secrets(self):
        a1, a2 = dh.generate_keypair(), dh.generate_keypair()
        b = dh.generate_keypair()
        assert dh.shared_secret(a1, b.public) != dh.shared_secret(a2, b.public)

    def test_public_bytes_round_trip(self):
        kp = dh.generate_keypair()
        assert dh.public_from_bytes(kp.public_bytes()) == kp.public

    def test_secret_has_fixed_width(self):
        a, b = dh.generate_keypair(), dh.generate_keypair()
        assert len(dh.shared_secret(a, b.public)) == dh.GROUP14.size_bytes

    def test_private_exponent_is_256_bits(self):
        """RFC 7919 §5.2 sizing: short, but never accidentally tiny."""
        draws = [dh.generate_keypair().private for _ in range(200)]
        assert all(2 <= x < 2**256 for x in draws)
        assert max(draws) >= 2**248
        assert len(set(draws)) == len(draws)

    def test_short_exponent_keypair_is_consistent(self):
        kp = dh.generate_keypair()
        assert kp.public == pow(dh.GROUP14.g, kp.private, dh.GROUP14.p)
        assert 2 <= kp.public <= dh.GROUP14.p - 2
        assert len(kp.public_bytes()) == dh.GROUP14.size_bytes


class TestValidation:
    @pytest.mark.parametrize("bad", [0, 1])
    def test_degenerate_low_values_rejected(self, bad):
        with pytest.raises(CryptoError):
            dh.public_from_bytes(bad.to_bytes(dh.GROUP14.size_bytes, "big"))

    def test_p_minus_one_rejected(self):
        value = (dh.GROUP14.p - 1).to_bytes(dh.GROUP14.size_bytes, "big")
        with pytest.raises(CryptoError):
            dh.public_from_bytes(value)

    def test_out_of_range_rejected(self):
        value = dh.GROUP14.p.to_bytes(dh.GROUP14.size_bytes, "big")
        with pytest.raises(CryptoError):
            dh.public_from_bytes(value)

    def test_shared_secret_validates_peer(self):
        kp = dh.generate_keypair()
        for bad in (0, 1, dh.GROUP14.p - 1, dh.GROUP14.p):
            with pytest.raises(CryptoError):
                dh.shared_secret(kp, bad)

    @pytest.mark.parametrize("width", [0, 3, 255, 257, 300])
    def test_wrong_width_rejected(self, width):
        """Only the fixed-width encoding public_bytes() emits parses: not a
        short in-range value, not a zero-padded long one."""
        value = (5).to_bytes(width, "big") if width else b""
        with pytest.raises(CryptoError):
            dh.public_from_bytes(value)
        assert dh.public_from_bytes((5).to_bytes(dh.GROUP14.size_bytes, "big")) == 5

    def test_padded_real_value_rejected(self):
        kp = dh.generate_keypair()
        with pytest.raises(CryptoError):
            dh.public_from_bytes(b"\x00" + kp.public_bytes())
        with pytest.raises(CryptoError):
            dh.public_from_bytes(kp.public_bytes().lstrip(b"\x00")[1:])
