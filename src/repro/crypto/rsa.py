"""RSA signatures from scratch (keygen, PKCS#1 v1.5-style signing).

The PKI layer signs certificates and the attestation layer signs quotes
with these keys.  Signing uses the CRT for a ~4x speedup; verification is
a single modular exponentiation with a small public exponent.

The padding is deterministic EMSA-PKCS1-v1_5 with a SHA-256 DigestInfo
prefix, byte-compatible with the real scheme, so signatures are stable
across processes and suitable for hashing into measurements.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from repro.crypto.primes import generate_prime
from repro.errors import CryptoError, KeyError_
from repro.util.serialization import Reader, Writer

# ASN.1 DigestInfo prefix for SHA-256 (RFC 8017, section 9.2 note 1).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def serialize(self) -> bytes:
        w = Writer()
        w.bytes(_int_to_bytes(self.n))
        w.bytes(_int_to_bytes(self.e))
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "RsaPublicKey":
        r = Reader(data)
        n, e = (int.from_bytes(r.bytes(), "big") for _ in range(2))
        r.expect_end()
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def serialize(self) -> bytes:
        w = Writer()
        for value in (self.n, self.e, self.d, self.p, self.q):
            w.bytes(_int_to_bytes(value))
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "RsaPrivateKey":
        r = Reader(data)
        n, e, d, p, q = (int.from_bytes(r.bytes(), "big") for _ in range(5))
        r.expect_end()
        return _with_crt(n, e, d, p, q)


def _int_to_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")


def _with_crt(n: int, e: int, d: int, p: int, q: int) -> RsaPrivateKey:
    return RsaPrivateKey(
        n=n,
        e=e,
        d=d,
        p=p,
        q=q,
        d_p=d % (p - 1),
        d_q=d % (q - 1),
        q_inv=pow(q, -1, p),
    )


def generate_keypair(bits: int = 2048) -> RsaPrivateKey:
    """Generate an RSA key pair with an n of ``bits`` bits.

    Nothing in ``src/`` caches keys: every CA, attestation service, enclave
    and new user pays one generation, tens of milliseconds at their 1024 bits.
    """
    if bits < 512:
        raise KeyError_("RSA modulus below 512 bits is not supported")
    half = bits // 2
    while True:
        p = generate_prime(half)
        q = generate_prime(bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; pick new primes
        return _with_crt(n, PUBLIC_EXPONENT, d, p, q)


def _emsa_pkcs1_v15(message: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message)."""
    digest = hashlib.sha256(message).digest()
    t = _SHA256_PREFIX + digest
    if em_len < len(t) + 11:
        raise CryptoError("RSA modulus too small for SHA-256 signature")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def sign(key: RsaPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` (SHA-256, PKCS#1 v1.5 padding) with CRT exponentiation."""
    em = _emsa_pkcs1_v15(message, key.size_bytes)
    m = int.from_bytes(em, "big")
    if m >= key.n:
        raise CryptoError("encoded message out of range")
    # CRT: s = q_inv * (s_p - s_q) mod p * q + s_q
    s_p = pow(m % key.p, key.d_p, key.p)
    s_q = pow(m % key.q, key.d_q, key.q)
    h = (key.q_inv * (s_p - s_q)) % key.p
    s = s_q + h * key.q
    return s.to_bytes(key.size_bytes, "big")


def verify(key: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify a signature produced by :func:`sign`.  Returns False on any mismatch."""
    if len(signature) != key.size_bytes:
        return False
    s = int.from_bytes(signature, "big")
    if s >= key.n:
        return False
    em = pow(s, key.e, key.n).to_bytes(key.size_bytes, "big")
    try:
        expected = _emsa_pkcs1_v15(message, key.size_bytes)
    except CryptoError:
        return False
    return secrets.compare_digest(em, expected)
