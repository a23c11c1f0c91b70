"""Probabilistic Authenticated Encryption (PAE) — the paper's Section II-B.

PAE_Enc takes a secret key SK, a random IV, and a plaintext v, and returns
a ciphertext c; PAE_Dec takes SK and c and returns v iff c is authentic.
Both backends are AES-128-GCM, as the paper prescribes, and produce the
same bytes for the same key, IV, plaintext and AAD:

:class:`OpenSslGcmPae`
    AES-128-GCM from OpenSSL (AES-NI where the CPU has it) through the
    ``cryptography`` package.  :func:`default_pae` returns it, so every
    sealed byte in the system goes through it.

:class:`AesGcmPae`
    AES-128-GCM on the pure-Python AES from :mod:`repro.crypto.aes`.
    Validated against NIST vectors; slow.  The differential reference for
    the tests and the throughput figure; never the default.

The ciphertext blob layout is ``iv(12) || ciphertext || tag(16)``.
"""

from __future__ import annotations

import secrets
import threading
from abc import ABC, abstractmethod
from typing import Any

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

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
    """AES-128-GCM backend on pure-Python AES (the reference).

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


class OpenSslGcmPae(Pae):
    """AES-128-GCM backend on OpenSSL (the default).

    A key's context is its ``AESGCM`` object, which holds the expanded key.
    ``encrypt`` is deliberately :class:`Pae`'s: the benchmark's ledger
    wraps it there.
    """

    iv_size = 12  # 96-bit IVs, as SP 800-38D recommends
    tag_size = 16

    def _new_context(self, key: bytes) -> AESGCM:
        return AESGCM(key)

    def encrypt_with_iv(self, key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        context = self._context(key)
        if len(iv) != self.iv_size:
            raise KeyError_(f"IV must be {self.iv_size} bytes")
        return iv + context.encrypt(iv, plaintext, aad)

    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        context = self._context(key)
        if len(blob) < self.overhead:
            raise IntegrityError("ciphertext too short")
        view = memoryview(blob)
        try:
            return context.decrypt(view[: self.iv_size], view[self.iv_size :], aad)
        except InvalidTag:
            raise IntegrityError("PAE tag mismatch") from None


_DEFAULT = OpenSslGcmPae()


def default_pae() -> Pae:
    """The process-wide default PAE backend (AES-128-GCM on OpenSSL)."""
    return _DEFAULT
