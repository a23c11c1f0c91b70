"""Established-session record protection.

After the handshake, each direction has its own write key and a record
sequence number.  Every record is PAE-encrypted with the sequence number
and direction label as associated data, so the receiver detects replayed,
reordered, dropped, and cross-direction-reflected records.

``STREAM_CHUNK`` is the fixed chunk size of the paper's streaming design
(Section VI): large payloads cross the channel — and the enclave — in
constant-size pieces, so the enclave never buffers a whole file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto import default_pae
from repro.errors import IntegrityError, TlsError
from repro.netsim.clock import SimClock
from repro.tls.handshake import SessionKeys

STREAM_CHUNK = 64 * 1024

#: A record's associated data: the direction label as a length-prefixed
#: string (``u32 3 || "c2s"`` or ``"s2c"``), then the u64 sequence number.
_AAD = struct.Struct(">I3sQ")


@dataclass(frozen=True)
class CryptoCostProfile:
    """Virtual-time cost of record crypto at one endpoint.

    The enclave and the client both pay AEAD time per byte; the profile is
    attached per session end so experiments can model asymmetric hardware.
    """

    aead_bytes_per_second: float = 2.8e9
    per_record: float = 1.5e-6


class TlsSession:
    """One endpoint's view of an established TLS session."""

    def __init__(
        self,
        keys: SessionKeys,
        is_client: bool,
        clock: SimClock,
        costs: CryptoCostProfile | None = None,
        cost_account: str = "tls-crypto",
    ) -> None:
        self._keys = keys
        self._is_client = is_client
        self._send_seq = 0
        self._recv_seq = 0
        self._clock = clock
        self._costs = costs or CryptoCostProfile()
        self._account = cost_account
        self._pae = default_pae()

    def _charge(self, nbytes: int) -> None:
        self._clock.charge(
            self._costs.per_record + nbytes / self._costs.aead_bytes_per_second,
            account=self._account,
        )

    def _aad(self, sending: bool, seq: int) -> bytes:
        return _AAD.pack(3, b"c2s" if sending == self._is_client else b"s2c", seq)

    def _send_key(self) -> bytes:
        return self._keys.client_write if self._is_client else self._keys.server_write

    def _recv_key(self) -> bytes:
        return self._keys.server_write if self._is_client else self._keys.client_write

    def protect(self, plaintext: bytes) -> bytes:
        """Encrypt one outgoing record payload."""
        self._charge(len(plaintext))
        aad = self._aad(sending=True, seq=self._send_seq)
        self._send_seq += 1
        return self._pae.encrypt(self._send_key(), plaintext, aad=aad)

    def unprotect(self, ciphertext: bytes) -> bytes:
        """Decrypt one incoming record payload, enforcing sequence order."""
        self._charge(max(0, len(ciphertext) - self._pae.overhead))
        aad = self._aad(sending=False, seq=self._recv_seq)
        try:
            plaintext = self._pae.decrypt(self._recv_key(), ciphertext, aad=aad)
        except IntegrityError as exc:
            raise TlsError(
                "record authentication failed (tampered, replayed, or reordered)"
            ) from exc
        self._recv_seq += 1
        return plaintext


def chunk_payload(payload: bytes, chunk_size: int = STREAM_CHUNK) -> list[bytes]:
    """Split ``payload`` into streaming chunks; empty payloads are one chunk."""
    if not payload:
        return [b""]
    return [payload[i : i + chunk_size] for i in range(0, len(payload), chunk_size)]
