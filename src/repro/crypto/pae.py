"""Probabilistic Authenticated Encryption (PAE) — the paper's Section II-B.

PAE_Enc takes a secret key SK, a random IV, and a plaintext v, and returns
a ciphertext c; PAE_Dec takes SK and c and returns v iff c is authentic.
The one backend, :class:`OpenSslGcmPae`, is AES-128-GCM as the paper
prescribes, from OpenSSL (AES-NI where the CPU has it) through the
``cryptography`` package.  :func:`default_pae` returns it, so every sealed
byte in the system goes through it.  The tests hold it byte for byte
against a pure-Python AES-128-GCM reference (``tests/support/gcm.py``),
which subclasses :class:`Pae` too.

The ciphertext blob layout is ``iv(12) || ciphertext || tag(16)``.
"""

from __future__ import annotations

import secrets
import threading
from abc import ABC, abstractmethod
from typing import Any, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

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

    def encrypt_many(self, key: bytes, plaintexts: Sequence[bytes], aads: Sequence[bytes]) -> list[bytes]:
        """PAE_Enc of each plaintext under its AAD, each with its own random IV."""
        return [self.encrypt(key, text, aad) for text, aad in zip(plaintexts, aads)]

    def decrypt_many(self, key: bytes, blobs: Sequence[bytes], aads: Sequence[bytes]) -> list[bytes]:
        """PAE_Dec of each blob; raises :class:`IntegrityError`, returning none, if one is not authentic."""
        return [self.decrypt(key, blob, aad) for blob, aad in zip(blobs, aads)]

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


class OpenSslGcmPae(Pae):
    """AES-128-GCM backend on OpenSSL (the default, and the only one).

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
        try:
            return context.decrypt(blob[: self.iv_size], memoryview(blob)[self.iv_size :], aad)
        except InvalidTag:
            raise IntegrityError("PAE tag mismatch") from None

    # The batch entries make no Python call per blob.

    def encrypt_many(self, key: bytes, plaintexts: Sequence[bytes], aads: Sequence[bytes]) -> list[bytes]:
        encrypt, size = self._context(key).encrypt, self.iv_size
        drawn = secrets.token_bytes(size * len(plaintexts))  # every IV from one draw, sliced
        offsets = zip(range(0, len(drawn), size), plaintexts, aads)
        return [(iv := drawn[at : at + size]) + encrypt(iv, text, aad) for at, text, aad in offsets]

    def decrypt_many(self, key: bytes, blobs: Sequence[bytes], aads: Sequence[bytes]) -> list[bytes]:
        decrypt, size, overhead = self._context(key).decrypt, self.iv_size, self.overhead
        if min(map(len, blobs), default=overhead) < overhead:
            raise IntegrityError("ciphertext too short")
        try:
            return [decrypt(view[:size], view[size:], aad) for view, aad in zip(map(memoryview, blobs), aads)]
        except InvalidTag:
            raise IntegrityError("PAE tag mismatch") from None


_DEFAULT = OpenSslGcmPae()


def default_pae() -> Pae:
    """The process-wide default PAE backend (AES-128-GCM on OpenSSL)."""
    return _DEFAULT
