"""Ephemeral finite-field Diffie–Hellman key agreement.

The paper's TLS suite uses ECDHE; elliptic-curve arithmetic from scratch
buys nothing for the reproduction, so we substitute the classic
finite-field construction over the 2048-bit MODP group from RFC 3526
(group 14).  The security-relevant properties the TLS layer needs —
ephemeral per-handshake secrets and forward secrecy — are preserved.

Private exponents are 256 bits, not 2048: the group itself is worth
about 110 bits, Pollard's lambda against a 256-bit exponent costs 2^128,
and a safe-prime group has no small subgroup to leak exponent bits once
a peer value is checked to lie in [2, p-2].  RFC 7919 section 5.2 (225
bits at 2048), RFC 3526 section 8 (220) and NIST SP 800-56A rev. 3 (224
to 2047) size it this way.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.errors import CryptoError

# RFC 3526, 2048-bit MODP Group (id 14); its generator is 2.
RFC3526_GROUP14_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class DhParams:
    """A Diffie–Hellman group (prime modulus and generator)."""

    p: int
    g: int

    @property
    def size_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8


GROUP14 = DhParams(p=RFC3526_GROUP14_PRIME, g=2)

# Twice a 128-bit security level; see the module docstring.
_EXPONENT_BITS = 256


@dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral DH key pair bound to a group."""

    params: DhParams
    private: int
    public: int

    def public_bytes(self) -> bytes:
        return self.public.to_bytes(self.params.size_bytes, "big")


def generate_keypair(params: DhParams = GROUP14) -> DhKeyPair:
    """Generate an ephemeral key pair: x random in [2, 2^256), X = g^x mod p."""
    private = secrets.randbelow((1 << _EXPONENT_BITS) - 2) + 2
    public = pow(params.g, private, params.p)
    return DhKeyPair(params=params, private=private, public=public)


def public_from_bytes(data: bytes, params: DhParams = GROUP14) -> int:
    """Parse and validate a peer public value.

    Rejects any width but the one :meth:`DhKeyPair.public_bytes` emits and
    degenerate values (0, 1, p-1, out of range) that would force the shared
    secret into a tiny subgroup.
    """
    value = int.from_bytes(data, "big")
    if len(data) != params.size_bytes or not 2 <= value <= params.p - 2:
        raise CryptoError("invalid DH public value")
    return value


def shared_secret(keypair: DhKeyPair, peer_public: int) -> bytes:
    """Compute the shared secret Y^x mod p as fixed-width big-endian bytes."""
    if not 2 <= peer_public <= keypair.params.p - 2:
        raise CryptoError("invalid DH public value")
    secret = pow(peer_public, keypair.private, keypair.params.p)
    return secret.to_bytes(keypair.params.size_bytes, "big")
