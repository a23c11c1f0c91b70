"""The split TLS interfaces and the client channel (Fig. 1).

Server side, two halves:

* :class:`UntrustedTlsInterface` — terminates the transport connection in
  the untrusted host.  It forwards opaque records into the enclave
  through a ``forward`` callable (in SeGShare, a switchless ECALL) and
  writes the records the enclave returns back to the wire.  It sees only
  ciphertext.
* :class:`TrustedTlsInterface` — lives inside the enclave.  It runs the
  handshake with the CA-provisioned server identity, validates client
  certificates, decrypts requests, hands them to an application, and
  protects responses.

Client side, :class:`TlsClient` couples a :class:`Connection` with the
handshake and record protection, and exposes ``request`` / ``upload``
with the chunked streaming the paper's Section VI describes.

Messages on the channel are framed as a header record followed by zero
or more chunk records so that neither endpoint ever needs more than one
chunk of buffer per request — the enclave's "small, constant size buffer".
"""

from __future__ import annotations

import contextlib
import itertools
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import random

from repro.crypto import rsa
from repro.errors import EnclaveCrashed, NetworkError, RetryPolicy, TlsError
from repro.netsim.clock import SimClock
from repro.netsim.transport import Connection
from repro.tls import records
from repro.tls.handshake import (
    ClientHandshake,
    ClientIdentity,
    ServerHandshake,
    ServerIdentity,
)
from repro.tls.records import ContentType
from repro.tls.session import STREAM_CHUNK, CryptoCostProfile, TlsSession, chunk_payload
from repro.util.serialization import SerializationError

_KIND_SINGLE = 0
_KIND_STREAM = 1
#: ``kind (u8) || n_chunks (u32) || body_len (u64) || header payload length (u32)``.
_HEADER = struct.Struct(">BIQI")

# Asymmetric handshake costs (virtual seconds) — RSA-2048-class signing,
# verification, and one ephemeral DH exchange per side.
_HS_SIGN = 600e-6
_HS_VERIFY = 20e-6
_HS_DH = 250e-6


def _charge_handshake(clock: SimClock, account: str) -> None:
    # One signature, two verifications (peer cert + peer KX), one DH.
    clock.charge(_HS_SIGN + 2 * _HS_VERIFY + _HS_DH, account=account)


def _message_header(kind: int, header_payload: bytes, n_chunks: int, body_len: int) -> bytes:
    return _HEADER.pack(kind, n_chunks, body_len, len(header_payload)) + header_payload


def _parse_message_header(data: bytes) -> tuple[int, int, int, bytes]:
    if len(data) < _HEADER.size:
        raise SerializationError("truncated message header")
    kind, n_chunks, body_len, length = _HEADER.unpack_from(data)
    if length != len(data) - _HEADER.size:
        raise SerializationError("message header length disagrees with its payload")
    return kind, n_chunks, body_len, data[_HEADER.size :]


def _records_for(body_len: int) -> int:
    """Body records of a streamed response: STREAM_CHUNK each, the last short."""
    return -(-body_len // STREAM_CHUNK)


@dataclass
class StreamingResponse:
    """A response the enclave streams (e.g. file download): ``chunks`` of any
    sizes summing to ``body_len``, pulled lazily into ``STREAM_CHUNK`` records."""

    header: bytes
    chunks: Iterable[bytes]
    body_len: int

    def close(self) -> None:
        # ``chunks`` may hold a file reader: whoever ends the stream,
        # drained or not, closes it.
        getattr(self.chunks, "close", lambda: None)()


class UploadSink(Protocol):
    """Application-side consumer for a streamed upload."""

    def write(self, chunk: bytes) -> None: ...

    def finish(self) -> "bytes | StreamingResponse": ...

    def abort(self) -> None: ...


class TlsApplication(Protocol):
    """What the trusted TLS interface needs from the application layer."""

    def handle_message(self, user_id: str, payload: bytes) -> "bytes | StreamingResponse":
        """Process a single-payload request; return the response."""

    def open_upload(self, user_id: str, header: bytes) -> UploadSink:
        """Start consuming a streamed upload announced by ``header``."""


class TrustedTlsInterface:
    """In-enclave TLS endpoint managing many concurrent sessions."""

    def __init__(
        self,
        application: TlsApplication,
        ca_public_key: rsa.RsaPublicKey,
        clock: SimClock,
        costs: CryptoCostProfile | None = None,
    ) -> None:
        self._application = application
        self._ca_public_key = ca_public_key
        self._clock = clock
        self._costs = costs or CryptoCostProfile()
        self._identity: ServerIdentity | None = None
        self._session_ids = itertools.count(1)
        self._sessions: dict[int, _ServerSession] = {}

    def install_identity(self, identity: ServerIdentity) -> None:
        """Install or replace the server certificate (the CA may re-issue)."""
        self._identity = identity

    @property
    def has_identity(self) -> bool:
        return self._identity is not None

    def new_session(self) -> int:
        """Allocate state for a freshly accepted connection."""
        if self._identity is None:
            raise TlsError("no server certificate installed yet")
        session_id = next(self._session_ids)
        self._sessions[session_id] = _ServerSession(
            handshake=ServerHandshake(self._identity, self._ca_public_key),
            clock=self._clock,
            costs=self._costs,
        )
        return session_id

    def close_session(self, session_id: int) -> None:
        session = self._sessions.pop(session_id, None)
        if session is not None:
            session.abort_upload()

    def on_record(self, session_id: int, raw: bytes) -> list[bytes]:
        """Process one incoming record; returns records to send back.

        Any processing error tears the session down and yields an alert —
        the enclave never leaks details of *why* to the untrusted host.
        """
        session = self._sessions.get(session_id)
        if session is None:
            return [records.alert_record("unknown session")]
        try:
            return session.on_record(raw, self._application)
        except EnclaveCrashed:
            # A fault-injected crash must propagate to the platform layer,
            # not collapse into a TLS alert: the whole enclave is dead.
            raise
        except Exception:
            self.close_session(session_id)
            return [records.alert_record("session error")]


class _ServerSession:
    """Per-connection state inside the trusted interface."""

    def __init__(
        self, handshake: ServerHandshake, clock: SimClock, costs: CryptoCostProfile
    ) -> None:
        self._handshake: ServerHandshake | None = handshake
        self._clock = clock
        self._costs = costs
        self._session: TlsSession | None = None
        self._user_id: str | None = None
        self._hs_step = 0
        # In-flight inbound message state (constant-size: one chunk at a time).
        self._expect_chunks = 0
        self._body_remaining = 0
        self._single_parts: list[bytes] | None = None
        self._upload: UploadSink | None = None

    def on_record(self, raw: bytes, application: TlsApplication) -> list[bytes]:
        if self._session is None:
            return self._handshake_record(raw)
        return self._data_record(raw, application)

    # -- handshake ------------------------------------------------------------

    def _handshake_record(self, raw: bytes) -> list[bytes]:
        assert self._handshake is not None
        payload = records.parse_record(raw, ContentType.HANDSHAKE)
        if self._hs_step == 0:
            reply = self._handshake.handle_client_hello(payload)
            self._hs_step = 1
            return [records.handshake_record(reply)]
        if self._hs_step == 1:
            self._handshake.handle_client_key_exchange(payload)
            self._hs_step = 2
            return []
        if self._hs_step == 2:
            server_finished = self._handshake.verify_client_finished(payload)
            _charge_handshake(self._clock, "enclave-tls")
            assert self._handshake.keys is not None
            self._user_id = self._handshake.client_uid
            self._session = TlsSession(
                self._handshake.keys,
                is_client=False,
                clock=self._clock,
                costs=self._costs,
                cost_account="enclave-tls",
            )
            self._handshake = None
            self._hs_step = 3
            return [records.handshake_record(server_finished)]
        raise TlsError("unexpected handshake record")

    # -- application data -------------------------------------------------------

    def _data_record(self, raw: bytes, application: TlsApplication) -> list[bytes]:
        assert self._session is not None and self._user_id is not None
        ciphertext = records.parse_record(raw, ContentType.APPLICATION_DATA)
        plaintext = self._session.unprotect(ciphertext)

        if self._expect_chunks == 0 and self._upload is None and self._single_parts is None:
            return self._begin_message(plaintext, application)
        return self._continue_message(plaintext, application)

    def _begin_message(self, plaintext: bytes, application: TlsApplication) -> list[bytes]:
        kind, n_chunks, body_len, header_payload = _parse_message_header(plaintext)
        if kind == _KIND_SINGLE:
            if n_chunks == 0:
                response = application.handle_message(self._user_id, header_payload)
                return self._respond(response)
            self._expect_chunks = n_chunks
            self._body_remaining = body_len
            self._single_parts = [header_payload]
            return []
        if kind == _KIND_STREAM:
            self._upload = application.open_upload(self._user_id, header_payload)
            self._expect_chunks = n_chunks
            self._body_remaining = body_len
            if n_chunks == 0:
                return self._finish_upload()
            return []
        raise TlsError(f"unknown message kind {kind}")

    def _continue_message(self, chunk: bytes, application: TlsApplication) -> list[bytes]:
        if len(chunk) > self._body_remaining:
            raise TlsError("stream overflow: more bytes than announced")
        self._body_remaining -= len(chunk)
        self._expect_chunks -= 1
        if self._upload is not None:
            self._upload.write(chunk)
            if self._expect_chunks == 0:
                if self._body_remaining != 0:
                    raise TlsError("stream underflow: fewer bytes than announced")
                return self._finish_upload()
            return []
        assert self._single_parts is not None
        self._single_parts.append(chunk)
        if self._expect_chunks == 0:
            payload = b"".join(self._single_parts)
            self._single_parts = None
            response = application.handle_message(self._user_id, payload)
            return self._respond(response)
        return []

    def _finish_upload(self) -> list[bytes]:
        assert self._upload is not None
        sink = self._upload
        self._upload = None
        return self._respond(sink.finish())

    def abort_upload(self) -> None:
        """Every way a session is dropped comes here: a half-streamed upload
        must not leave its chunks behind in untrusted storage."""
        if self._upload is not None:
            sink, self._upload = self._upload, None
            sink.abort()

    def _respond(self, response: "bytes | StreamingResponse") -> list[bytes]:
        assert self._session is not None
        protect = self._session.protect
        if not isinstance(response, StreamingResponse):
            header = _message_header(_KIND_SINGLE, response, 0, 0)
            return [records.data_record(protect(header))]
        with contextlib.closing(response):
            # The body leaves in STREAM_CHUNK records whatever size the
            # application's chunks are: the record count is announced from
            # ``body_len`` and the chunks are pulled as records fill, so the
            # plaintext held is below STREAM_CHUNK plus the chunk just pulled.
            # A protected-FS reader's chunk is one read group, a whole
            # STREAM_CHUNK, so a download holds one group: 64 KiB of
            # plaintext (and, while the reader opens it, 64 KiB of ciphertext).
            body_len = response.body_len
            header = _message_header(_KIND_STREAM, response.header, _records_for(body_len), body_len)
            out = [records.data_record(protect(header))]
            held: list[bytes] = []
            pulled = sent = 0
            for chunk in response.chunks:
                held.append(chunk)
                pulled += len(chunk)
                if pulled > body_len:
                    raise TlsError("stream overflow: more bytes than announced")
                if pulled - sent >= STREAM_CHUNK:
                    pieces = chunk_payload(b"".join(held))
                    held = [pieces.pop()] if (pulled - sent) % STREAM_CHUNK else []
                    out.extend(records.data_record(protect(piece)) for piece in pieces)
                    sent += len(pieces) * STREAM_CHUNK
            if pulled != body_len:
                raise TlsError("stream underflow: fewer bytes than announced")
            if pulled > sent:
                out.append(records.data_record(protect(b"".join(held))))
            return out


class UntrustedTlsInterface:
    """The untrusted record forwarder.

    ``forward(session_id, raw) -> list[raw]`` crosses the enclave boundary;
    ``new_session()`` registers a connection with the trusted side.  This
    class never parses beyond the record header.
    """

    def __init__(
        self,
        new_session: Callable[[], int],
        forward: Callable[[int, bytes], list[bytes]],
        close_session: Callable[[int], None],
    ) -> None:
        self._new_session = new_session
        self._forward = forward
        self._close_session = close_session
        self.records_forwarded = 0

    def attach(self, conn: Connection) -> None:
        """Bind an accepted connection: every inbound record is forwarded,
        and its close frees the enclave's session (aborting a half-streamed
        upload)."""
        session_id = self._new_session()

        def receiver(raw: bytes) -> None:
            self.records_forwarded += 1
            first = True
            for reply in self._forward(session_id, raw):
                if first:
                    conn.send(reply)
                    first = False
                else:
                    conn.send_stream(reply)

        def closed() -> None:
            # A dead enclave's sessions died with it.
            with contextlib.suppress(EnclaveCrashed):
                self._close_session(session_id)

        conn.set_receiver(receiver)
        conn.set_close_handler(closed)


class TlsClient:
    """The user application's end of the secure channel."""

    def __init__(
        self,
        conn: Connection,
        identity: ClientIdentity,
        ca_public_key: rsa.RsaPublicKey,
        clock: SimClock,
        costs: CryptoCostProfile | None = None,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> None:
        self._conn = conn
        self._identity = identity
        self._ca_public_key = ca_public_key
        self.clock = clock
        self._costs = costs or CryptoCostProfile()
        self._session: TlsSession | None = None
        self._retry = retry
        self._retry_rng = random.Random(retry_seed)
        self.server_uid: str | None = None

    def _send_record(self, record: bytes, stream: bool = False) -> None:
        """Send one record, retrying transient network faults.

        Retrying re-sends the *same ciphertext*: record sequence numbers
        were already consumed by ``protect``, so a dropped record must be
        replayed verbatim — re-encrypting would desynchronise the session.
        Backoff is charged to the simulated clock under ``client-backoff``.
        """
        send = self._conn.send_stream if stream else self._conn.send
        attempt = 1
        while True:
            try:
                send(record)
                return
            except NetworkError:
                if self._retry is None or attempt >= self._retry.attempts:
                    raise
                delay = self._retry.delay(attempt, self._retry_rng)
                self.clock.charge(delay, account="client-backoff")
                attempt += 1

    def handshake(self) -> None:
        """Run the full handshake; afterwards the channel is ready."""
        hs = ClientHandshake(self._identity, self._ca_public_key)
        self._send_record(records.handshake_record(hs.client_hello()))
        server_hello = records.parse_record(self._conn.recv(), ContentType.HANDSHAKE)
        kx = hs.handle_server_hello(server_hello)
        self._send_record(records.handshake_record(kx))
        self._send_record(records.handshake_record(hs.client_finished()))
        server_finished = records.parse_record(self._conn.recv(), ContentType.HANDSHAKE)
        hs.verify_server_finished(server_finished)
        _charge_handshake(self.clock, "client-crypto")
        assert hs.keys is not None
        self.server_uid = hs.server_uid
        self._session = TlsSession(
            hs.keys,
            is_client=True,
            clock=self.clock,
            costs=self._costs,
            cost_account="client-crypto",
        )

    def _require_session(self) -> TlsSession:
        if self._session is None:
            raise TlsError("handshake has not completed")
        return self._session

    # -- sending ----------------------------------------------------------------

    def request(self, payload: bytes) -> bytes:
        """Send a control request; returns the single response payload, or
        the reassembled body for streamed responses."""
        header, body = self.request_full(payload)
        return body if body else header

    def request_full(self, payload: bytes) -> tuple[bytes, bytes]:
        """Send a control request; returns ``(header_payload, body)``.

        Single responses come back as ``(payload, b"")``; streamed
        responses as ``(header, reassembled_body)``.
        """
        session = self._require_session()
        chunks = chunk_payload(payload) if len(payload) > STREAM_CHUNK else []
        if chunks:
            header = _message_header(_KIND_SINGLE, b"", len(chunks), len(payload))
            self._send_record(records.data_record(session.protect(header)))
            for chunk in chunks:
                self._send_record(records.data_record(session.protect(chunk)), stream=True)
        else:
            header = _message_header(_KIND_SINGLE, payload, 0, 0)
            self._send_record(records.data_record(session.protect(header)))
        return self._read_response()

    def upload(self, header_payload: bytes, content: bytes | Iterator[bytes]) -> bytes:
        """Stream an upload; returns the single response payload."""
        header, body = self.upload_full(header_payload, content)
        return body if body else header

    def upload_full(
        self, header_payload: bytes, content: bytes | Iterator[bytes]
    ) -> tuple[bytes, bytes]:
        """Stream an upload: a header followed by fixed-size content chunks."""
        session = self._require_session()
        if isinstance(content, bytes):
            chunks = chunk_payload(content) if content else []
            body_len = len(content)
        else:
            chunks = list(content)
            body_len = sum(len(c) for c in chunks)
        header = _message_header(_KIND_STREAM, header_payload, len(chunks), body_len)
        self._send_record(records.data_record(session.protect(header)))
        for chunk in chunks:
            self._send_record(records.data_record(session.protect(chunk)), stream=True)
        return self._read_response()

    # -- receiving ---------------------------------------------------------------

    def _read_response(self) -> tuple[bytes, bytes]:
        session = self._require_session()
        ciphertext = records.parse_record(self._conn.recv(), ContentType.APPLICATION_DATA)
        kind, n_chunks, body_len, header_payload = _parse_message_header(
            session.unprotect(ciphertext)
        )
        if kind == _KIND_SINGLE:
            return header_payload, b""
        if n_chunks != _records_for(body_len):
            raise TlsError("streamed response record count does not match its length")
        parts = []
        received = 0
        for _ in range(n_chunks):
            raw = records.parse_record(self._conn.recv(), ContentType.APPLICATION_DATA)
            chunk = session.unprotect(raw)
            received += len(chunk)
            parts.append(chunk)
        if received != body_len:
            raise TlsError("streamed response length mismatch")
        return header_payload, b"".join(parts)

    def close(self) -> None:
        self._conn.close()
