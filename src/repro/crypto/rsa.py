"""RSA keys and PKCS#1 v1.5 SHA-256 signatures on OpenSSL.

The PKI layer signs certificates and the attestation layer signs quotes
with these keys.  OpenSSL (through ``cryptography``) generates, signs and
verifies; this module keeps the key encodings, ``(n, e)`` and
``(n, e, d, p, q)`` as length-prefixed big-endian integers.  The scheme
is deterministic, so signatures are stable across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding
from cryptography.hazmat.primitives.asymmetric import rsa as _rsa

from repro.errors import CryptoError, KeyError_
from repro.util.serialization import Reader, Writer

PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

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
    """RSA private key (n, e, d, p, q) and the OpenSSL key built from it once."""

    n: int
    e: int
    d: int
    p: int
    q: int
    openssl_key: _rsa.RSAPrivateKey = field(repr=False, compare=False)

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    def serialize(self) -> bytes:
        w = Writer().bytes(_int_to_bytes(self.n)).bytes(_int_to_bytes(self.e))
        # d at n's width: at its minimal width, about 0.5 % of keys would seal
        # one byte shorter, so the sealed key's length would depend on the key.
        w.bytes(self.d.to_bytes(len(_int_to_bytes(self.n)), "big"))
        return w.bytes(_int_to_bytes(self.p)).bytes(_int_to_bytes(self.q)).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "RsaPrivateKey":
        """Parse and validate a key; an inconsistent one raises :class:`KeyError_`."""
        r = Reader(data)
        n, e, d, p, q = (int.from_bytes(r.bytes(), "big") for _ in range(5))
        r.expect_end()
        try:
            crt = (_rsa.rsa_crt_dmp1(d, p), _rsa.rsa_crt_dmq1(d, q), _rsa.rsa_crt_iqmp(p, q))
            numbers = _rsa.RSAPrivateNumbers(p, q, d, *crt, _rsa.RSAPublicNumbers(e, n))
            # OpenSSL checks that the primes, exponents and CRT values agree.
            openssl_key = numbers.private_key()
        except ValueError as exc:
            raise KeyError_("inconsistent RSA private key") from exc
        return cls(n=n, e=e, d=d, p=p, q=q, openssl_key=openssl_key)


def _int_to_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")


def generate_keypair(bits: int = 2048) -> RsaPrivateKey:
    """Generate an RSA key pair with an n of ``bits`` bits (at least 1024).

    Nothing in ``src/`` caches keys: every principal pays one generation.
    """
    try:
        openssl_key = _rsa.generate_private_key(PUBLIC_EXPONENT, bits)
    except ValueError as exc:
        raise KeyError_(f"RSA modulus of {bits} bits is not supported") from exc
    numbers = openssl_key.private_numbers()
    public = numbers.public_numbers
    return RsaPrivateKey(public.n, public.e, numbers.d, numbers.p, numbers.q, openssl_key)


def sign(key: RsaPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` (SHA-256, PKCS#1 v1.5 padding)."""
    try:
        return key.openssl_key.sign(message, padding.PKCS1v15(), hashes.SHA256())
    except ValueError as exc:
        raise CryptoError("RSA modulus too small for SHA-256 signature") from exc


def verify(key: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify a signature produced by :func:`sign`.  Returns False on any
    mismatch, and for a peer's public key OpenSSL refuses (``e`` < 3, ``n``
    even or < 3)."""
    try:
        public = _rsa.RSAPublicNumbers(key.e, key.n).public_key()
        public.verify(signature, message, padding.PKCS1v15(), hashes.SHA256())
    except (InvalidSignature, ValueError):
        return False
    return True
