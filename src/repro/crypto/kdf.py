"""HKDF-SHA256 (RFC 5869) and labeled key derivation.

The trusted file manager derives one file key per path from the sealed
root key SK_r (Section IV-B of the paper); the TLS layer derives record
keys from the DH shared secret.  Both go through HKDF so that every
derived key is bound to an explicit, domain-separating label.
"""

from __future__ import annotations

import hashlib
import hmac

_HASH_LEN = hashlib.sha256().digest_size
#: The HKDF-extract salt of :func:`derive_key`.
KDF_SALT = b"repro.kdf.v1"


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract: PRK = HMAC(salt, ikm)."""
    return hmac.digest(salt or bytes(_HASH_LEN), ikm, "sha256")


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keyed by ``info``."""
    if length > 255 * _HASH_LEN:
        raise ValueError("HKDF output too long")
    okm = block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        okm += block
        counter += 1
    return okm[:length]


def derive_key(root_key: bytes, label: str, context: bytes = b"", length: int = 32) -> bytes:
    """Derive a subkey from ``root_key`` bound to ``label`` and ``context``.

    Example: the per-file key of the paper is
    ``derive_key(SK_r, "segshare/file-key", path.encode())``.
    """
    return hkdf_expand(hkdf_extract(KDF_SALT, root_key), label.encode("utf-8") + b"\x00" + context, length)
