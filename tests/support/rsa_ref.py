"""Pure-Python RSASSA-PKCS1-v1_5 with SHA-256: the reference for OpenSSL.

``repro.crypto.rsa`` signs and verifies on OpenSSL.  This module is the
hand-written scheme it replaced: EMSA-PKCS1-v1_5 encoding (RFC 8017
section 9.2) with a SHA-256 DigestInfo prefix, CRT signing, and
verification by one modular exponentiation.  ``tests/crypto/test_rsa.py``
holds the two byte for byte against each other.  It is test code:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import hashlib
import secrets

from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import CryptoError

# ASN.1 DigestInfo prefix for SHA-256 (RFC 8017, section 9.2 note 1).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")


def _size_bytes(n: int) -> int:
    return (n.bit_length() + 7) // 8


def emsa_pkcs1_v15(message: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message)."""
    t = _SHA256_PREFIX + hashlib.sha256(message).digest()
    if em_len < len(t) + 11:
        raise CryptoError("RSA modulus too small for SHA-256 signature")
    return b"\x00\x01" + b"\xff" * (em_len - len(t) - 3) + b"\x00" + t


def sign(key: RsaPrivateKey, message: bytes) -> bytes:
    """Sign with CRT exponentiation."""
    size = _size_bytes(key.n)
    m = int.from_bytes(emsa_pkcs1_v15(message, size), "big")
    # CRT: s = q_inv * (s_p - s_q) mod p * q + s_q
    s_p = pow(m % key.p, key.d % (key.p - 1), key.p)
    s_q = pow(m % key.q, key.d % (key.q - 1), key.q)
    h = (pow(key.q, -1, key.p) * (s_p - s_q)) % key.p
    return (s_q + h * key.q).to_bytes(size, "big")


def verify(key: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    size = _size_bytes(key.n)
    if len(signature) != size:
        return False
    s = int.from_bytes(signature, "big")
    if s >= key.n:
        return False
    em = pow(s, key.e, key.n).to_bytes(size, "big")
    return secrets.compare_digest(em, emsa_pkcs1_v15(message, size))



#: Public keys OpenSSL refuses (``e`` below 3, ``n`` even or below 3), each
#: made from a real one by changing one field.
REFUSED_PUBLIC_KEYS = {
    "e=0": lambda key: RsaPublicKey(n=key.n, e=0),
    "e=1": lambda key: RsaPublicKey(n=key.n, e=1),
    "even-n": lambda key: RsaPublicKey(n=key.n + 1, e=key.e),
    "n=0": lambda key: RsaPublicKey(n=0, e=key.e),
}
