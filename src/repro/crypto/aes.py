"""Pure-Python AES block cipher (AES-128/192/256, encryption direction).

GCM mode only ever uses the forward cipher, so decryption of single blocks
is intentionally not implemented.  The implementation is the classic
table-driven one: four 256-entry T-tables combine SubBytes, ShiftRows and
MixColumns into one lookup per byte per round.

This is the reference backend: correct (validated against FIPS-197 and NIST
GCM vectors) but orders of magnitude slower than AES-NI.  It backs
:class:`repro.crypto.pae.AesGcmPae`, which the tests hold byte for byte
against the default :class:`repro.crypto.pae.OpenSslGcmPae` (OpenSSL).
"""

from __future__ import annotations

import struct

from repro.errors import KeyError_

# --- S-box generation (computed, not transcribed, to avoid copy errors) ---


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> bytes:
    # Multiplicative inverse table via exp/log tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        s = inv
        result = 0x63
        for _ in range(5):
            result ^= s
            s = ((s << 1) | (s >> 7)) & 0xFF
        sbox[value] = result
    return bytes(sbox)


SBOX = _build_sbox()

# --- T-tables: Te0[b] = MixColumns(SubBytes(b)) for each column rotation ---


def _build_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    te0, te1, te2, te3 = [], [], [], []
    for byte in range(256):
        s = SBOX[byte]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        te0.append(word)
        te1.append(((word >> 8) | (word << 24)) & 0xFFFFFFFF)
        te2.append(((word >> 16) | (word << 16)) & 0xFFFFFFFF)
        te3.append(((word >> 24) | (word << 8)) & 0xFFFFFFFF)
    return te0, te1, te2, te3


TE0, TE1, TE2, TE3 = _build_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class Aes:
    """AES forward cipher for a fixed key.

    >>> cipher = Aes(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise KeyError_(f"invalid AES key size: {len(key)} bytes")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * (self.rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise KeyError_("AES block must be 16 bytes")
        rk = self._round_keys
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]

        k = 4
        for _ in range(self.rounds - 1):
            t0 = (
                TE0[(s0 >> 24) & 0xFF]
                ^ TE1[(s1 >> 16) & 0xFF]
                ^ TE2[(s2 >> 8) & 0xFF]
                ^ TE3[s3 & 0xFF]
                ^ rk[k]
            )
            t1 = (
                TE0[(s1 >> 24) & 0xFF]
                ^ TE1[(s2 >> 16) & 0xFF]
                ^ TE2[(s3 >> 8) & 0xFF]
                ^ TE3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            t2 = (
                TE0[(s2 >> 24) & 0xFF]
                ^ TE1[(s3 >> 16) & 0xFF]
                ^ TE2[(s0 >> 8) & 0xFF]
                ^ TE3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            t3 = (
                TE0[(s3 >> 24) & 0xFF]
                ^ TE1[(s0 >> 16) & 0xFF]
                ^ TE2[(s1 >> 8) & 0xFF]
                ^ TE3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4

        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        out0 = (
            (SBOX[(s0 >> 24) & 0xFF] << 24)
            | (SBOX[(s1 >> 16) & 0xFF] << 16)
            | (SBOX[(s2 >> 8) & 0xFF] << 8)
            | SBOX[s3 & 0xFF]
        ) ^ rk[k]
        out1 = (
            (SBOX[(s1 >> 24) & 0xFF] << 24)
            | (SBOX[(s2 >> 16) & 0xFF] << 16)
            | (SBOX[(s3 >> 8) & 0xFF] << 8)
            | SBOX[s0 & 0xFF]
        ) ^ rk[k + 1]
        out2 = (
            (SBOX[(s2 >> 24) & 0xFF] << 24)
            | (SBOX[(s3 >> 16) & 0xFF] << 16)
            | (SBOX[(s0 >> 8) & 0xFF] << 8)
            | SBOX[s1 & 0xFF]
        ) ^ rk[k + 2]
        out3 = (
            (SBOX[(s3 >> 24) & 0xFF] << 24)
            | (SBOX[(s0 >> 16) & 0xFF] << 16)
            | (SBOX[(s1 >> 8) & 0xFF] << 8)
            | SBOX[s2 & 0xFF]
        ) ^ rk[k + 3]
        return struct.pack(">4I", out0, out1, out2, out3)
