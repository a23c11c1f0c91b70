"""Galois/Counter Mode (GCM) on top of the pure-Python AES cipher.

Implements AES-GCM per NIST SP 800-38D: CTR-mode encryption with GHASH
authentication over AAD and ciphertext.  GHASH multiplication uses an
8-bit table (256 precomputed multiples of H) for a reasonable pure-Python
speed; it is the reference the OpenSSL backend is tested against.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.aes import Aes
from repro.errors import IntegrityError, KeyError_

_R = 0xE1000000000000000000000000000000  # GCM reduction polynomial (high bits)


def _build_table(h: int) -> list[list[int]]:
    """Precompute tables[i][b] = (b << (8*i)) * H in GF(2^128).

    With 16 tables of 256 entries each, a GHASH block multiply becomes 16
    table lookups and xors.
    """
    # Single-bit multiples for the least significant byte position: the GCM
    # bit order maps byte value 0x80 to H itself, and each halving of the
    # byte value multiplies by x (shift right with reduction).
    single = {0x80: h}
    v = h
    for bit in (0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01):
        carry = v & 1
        v >>= 1
        if carry:
            v ^= _R
        single[bit] = v
    low = [0] * 256
    for b in range(1, 256):
        acc = 0
        for bit, mult in single.items():
            if b & bit:
                acc ^= mult
        low[b] = acc
    tables = [low]
    for _ in range(15):
        prev = tables[-1]
        nxt = [0] * 256
        for b in range(256):
            v = prev[b]
            # Multiply by x^8: shift right by 8 bits with reduction.
            for _ in range(8):
                carry = v & 1
                v >>= 1
                if carry:
                    v ^= _R
            nxt[b] = v
        tables.append(nxt)
    return tables


class Ghash:
    """Incremental GHASH over 16-byte blocks.

    ``tables`` comes from :func:`_build_table`; callers that hash under the
    same H repeatedly (i.e. :class:`AesGcm`) build it once and share it.
    """

    def __init__(self, tables: list[list[int]]) -> None:
        self._tables = tables
        self._y = 0

    def update(self, data: bytes) -> None:
        """Absorb ``data``, zero-padded to a multiple of 16 bytes."""
        if len(data) % 16:
            data = data + bytes(16 - len(data) % 16)
        y = self._y
        tables = self._tables
        for offset in range(0, len(data), 16):
            y ^= int.from_bytes(data[offset : offset + 16], "big")
            acc = 0
            # tables[i] holds multiples for the byte 8*i bits below the MSB
            # end (GCM's bit order puts x^0 at the most significant bit).
            for i in range(16):
                acc ^= tables[i][(y >> (120 - 8 * i)) & 0xFF]
            y = acc
        self._y = y

    def digest_with_lengths(self, aad_len: int, ct_len: int) -> bytes:
        """Finalize with the standard 128-bit length block."""
        self.update(struct.pack(">QQ", aad_len * 8, ct_len * 8))
        return self._y.to_bytes(16, "big")


class AesGcm:
    """AES-GCM authenticated encryption for a fixed key.

    The nonce must be 12 bytes (the common fast path: J0 = IV || 0^31 || 1).
    """

    TAG_SIZE = 16
    NONCE_SIZE = 12

    def __init__(self, key: bytes) -> None:
        self._aes = Aes(key)
        h = self._aes.encrypt_block(bytes(16))
        self._ghash_tables = _build_table(int.from_bytes(h, "big"))

    def _ctr_stream(self, j0: bytes, length: int) -> bytes:
        counter = int.from_bytes(j0, "big")
        blocks = []
        for _ in range((length + 15) // 16):
            counter = (counter & ~0xFFFFFFFF) | ((counter + 1) & 0xFFFFFFFF)
            blocks.append(self._aes.encrypt_block(counter.to_bytes(16, "big")))
        return b"".join(blocks)[:length]

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || 16-byte tag."""
        if len(nonce) != self.NONCE_SIZE:
            raise KeyError_("GCM nonce must be 12 bytes")
        j0 = nonce + b"\x00\x00\x00\x01"
        stream = self._ctr_stream(j0, len(plaintext))
        ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
        ghash = Ghash(self._ghash_tables)
        ghash.update(aad)
        ghash.update(ciphertext)
        s = ghash.digest_with_lengths(len(aad), len(ciphertext))
        tag_mask = self._aes.encrypt_block(j0)
        tag = bytes(a ^ b for a, b in zip(s, tag_mask))
        return ciphertext + tag

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raise IntegrityError on failure."""
        if len(nonce) != self.NONCE_SIZE:
            raise KeyError_("GCM nonce must be 12 bytes")
        if len(data) < self.TAG_SIZE:
            raise IntegrityError("GCM ciphertext shorter than tag")
        ciphertext, tag = data[: -self.TAG_SIZE], data[-self.TAG_SIZE :]
        ghash = Ghash(self._ghash_tables)
        ghash.update(aad)
        ghash.update(ciphertext)
        s = ghash.digest_with_lengths(len(aad), len(ciphertext))
        j0 = nonce + b"\x00\x00\x00\x01"
        tag_mask = self._aes.encrypt_block(j0)
        expected = bytes(a ^ b for a, b in zip(s, tag_mask))
        if not hmac.compare_digest(expected, tag):
            raise IntegrityError("GCM tag mismatch")
        stream = self._ctr_stream(j0, len(ciphertext))
        return bytes(a ^ b for a, b in zip(ciphertext, stream))
