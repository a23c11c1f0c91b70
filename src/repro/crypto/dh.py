"""Ephemeral X25519 key agreement (RFC 7748) on OpenSSL.

The paper's TLS suite is ECDHE-RSA; X25519 is its elliptic-curve
ephemeral Diffie–Hellman, here OpenSSL's through ``cryptography``.  A
fresh key pair per handshake or attested exchange gives forward secrecy.
Public values and shared secrets are 32 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric import x25519

from repro.errors import CryptoError


@dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral X25519 key pair."""

    private: x25519.X25519PrivateKey

    def public_bytes(self) -> bytes:
        return self.private.public_key().public_bytes_raw()


def generate_keypair() -> DhKeyPair:
    return DhKeyPair(x25519.X25519PrivateKey.generate())


def shared_secret(keypair: DhKeyPair, peer_public: bytes) -> bytes:
    """X25519 of our private scalar and a peer's 32-byte public value.

    Rejects any other width, and a low-order peer value, whose shared
    secret is all zero (RFC 7748 section 6.1).
    """
    try:
        return keypair.private.exchange(x25519.X25519PublicKey.from_public_bytes(peer_public))
    except ValueError as exc:
        raise CryptoError("invalid DH public value") from exc
