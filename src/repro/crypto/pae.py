"""Probabilistic Authenticated Encryption (PAE) — the paper's Section II-B.

PAE_Enc takes a secret key SK, a random IV, and a plaintext v, and returns
a ciphertext c; PAE_Dec takes SK and c and returns v iff c is authentic.
Two interchangeable backends implement this contract:

:class:`AesGcmPae`
    AES-128-GCM exactly as the paper prescribes, on the pure-Python AES
    from :mod:`repro.crypto.aes`.  Validated against NIST vectors; slow.
    Use for fidelity tests and small metadata.

:class:`HmacStreamPae`
    Encrypt-then-MAC AEAD built from stdlib primitives running at C speed:
    a SHAKE-256 extendable-output keystream XORed over the plaintext, then
    HMAC-SHA256 over ``iv || aad || ciphertext``.  This is a real AEAD (a
    tampered ciphertext fails authentication; every encryption uses a fresh
    random IV), so all security-relevant code paths behave exactly as with
    GCM — only the algorithm differs, as recorded in DESIGN.md.

The ciphertext blob layout is the same for both: ``iv || body || tag``.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import threading
from abc import ABC, abstractmethod
from typing import Any

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a standard dependency here
    _np = None

from repro.crypto.gcm import AesGcm
from repro.errors import IntegrityError, KeyError_

KEY_SIZE = 16  # AES-128 keys, as in the paper.


class Pae(ABC):
    """Interface of a probabilistic authenticated encryption scheme."""

    iv_size: int
    tag_size: int

    @property
    def overhead(self) -> int:
        """Ciphertext expansion in bytes (IV + tag)."""
        return self.iv_size + self.tag_size

    def encrypt(self, key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """PAE_Enc with a freshly drawn random IV."""
        return self.encrypt_with_iv(key, secrets.token_bytes(self.iv_size), plaintext, aad)

    @abstractmethod
    def encrypt_with_iv(self, key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """PAE_Enc with a caller-provided IV (tests and derived-IV schemes)."""

    @abstractmethod
    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        """PAE_Dec; raises :class:`IntegrityError` if the blob is not authentic."""

    #: Per-key contexts kept at most; the oldest is evicted first.
    _CACHE_LIMIT = 64

    def __init__(self) -> None:
        self._cache: dict[bytes, Any] = {}
        self._cache_lock = threading.Lock()  # misses only; a hit is one dict.get

    @abstractmethod
    def _new_context(self, key: bytes) -> Any:
        """Key-dependent state worth reusing across calls (key schedules)."""

    def _context(self, key: bytes) -> Any:
        if len(key) != KEY_SIZE:
            raise KeyError_(f"PAE key must be {KEY_SIZE} bytes, got {len(key)}")
        context = self._cache.get(key)
        if context is None:
            context = self._new_context(key)
            with self._cache_lock:
                if len(self._cache) >= self._CACHE_LIMIT:
                    self._cache.pop(next(iter(self._cache)))
                self._cache[key] = context
        return context


class AesGcmPae(Pae):
    """AES-128-GCM backend (fidelity).

    GCM instances are cached per key because building the GHASH tables
    dominates the cost of small encryptions.
    """

    iv_size = AesGcm.NONCE_SIZE
    tag_size = AesGcm.TAG_SIZE

    def _new_context(self, key: bytes) -> AesGcm:
        return AesGcm(key)

    def encrypt_with_iv(self, key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(iv) != self.iv_size:
            raise KeyError_(f"IV must be {self.iv_size} bytes")
        return iv + self._context(key).encrypt(iv, plaintext, aad)

    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        if len(blob) < self.overhead:
            raise IntegrityError("ciphertext too short")
        iv, body = blob[: self.iv_size], blob[self.iv_size :]
        return self._context(key).decrypt(iv, body, aad)


class HmacStreamPae(Pae):
    """SHAKE-256 stream cipher + HMAC-SHA256 encrypt-then-MAC backend (fast)."""

    # A key's context is the SHAKE state that has absorbed the encryption
    # subkey and the HMAC object keyed with the MAC subkey; each call copies
    # both, so a chunk costs one keystream and one MAC pass and no key setup.

    iv_size = 16
    tag_size = 32

    def _new_context(self, key: bytes) -> tuple[Any, hmac.HMAC]:
        enc_key = hmac.digest(key, b"repro.pae.enc", "sha256")
        mac_key = hmac.digest(key, b"repro.pae.mac", "sha256")
        return hashlib.shake_256(enc_key), hmac.new(mac_key, digestmod=hashlib.sha256)

    @staticmethod
    def _keystream_xor(stream: Any, iv: bytes, data: bytes) -> bytes:
        if not data:
            return b""
        stream = stream.copy()
        stream.update(iv)
        keystream = stream.digest(len(data))
        # numpy XOR runs at memory bandwidth; the big-int fallback keeps the
        # module importable without numpy (an order of magnitude slower).
        if _np is not None:
            a = _np.frombuffer(data, dtype=_np.uint8)
            b = _np.frombuffer(keystream, dtype=_np.uint8)
            return (a ^ b).tobytes()
        x = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
        return x.to_bytes(len(data), "big")

    def encrypt_with_iv(self, key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        stream, keyed = self._context(key)
        if len(iv) != self.iv_size:
            raise KeyError_(f"IV must be {self.iv_size} bytes")
        body = self._keystream_xor(stream, iv, plaintext)
        return iv + body + self._tag(keyed, iv, aad, body)

    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        stream, keyed = self._context(key)
        if len(blob) < self.overhead:
            raise IntegrityError("ciphertext too short")
        iv = blob[: self.iv_size]
        body = blob[self.iv_size : -self.tag_size]
        if not hmac.compare_digest(self._tag(keyed, iv, aad, body), blob[-self.tag_size :]):
            raise IntegrityError("PAE tag mismatch")
        return self._keystream_xor(stream, iv, body)

    @staticmethod
    def _tag(keyed: hmac.HMAC, iv: bytes, aad: bytes, body: bytes) -> bytes:
        mac = keyed.copy()
        # Unambiguous framing: fixed-width lengths precede variable fields.
        mac.update(len(aad).to_bytes(8, "big") + iv + aad)
        mac.update(body)
        return mac.digest()


_DEFAULT = HmacStreamPae()


def default_pae() -> Pae:
    """The process-wide default PAE backend (the fast one)."""
    return _DEFAULT
