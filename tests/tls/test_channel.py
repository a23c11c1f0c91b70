"""The split TLS interfaces end to end over the simulated network."""

import pytest

from repro.errors import TlsError
from repro.netsim import Endpoint, Listener, lan_env
from repro.pki import CertificateAuthority
from repro.tls import TlsClient, TrustedTlsInterface, UntrustedTlsInterface
from repro.tls.channel import StreamingResponse
from repro.tls.handshake import ClientIdentity, ServerIdentity
from repro.tls.session import STREAM_CHUNK, TlsSession
from tests.support.pki import server_certificate


class EchoApp:
    """Test application: echoes, streams, and records uploads."""

    def __init__(self):
        self.uploads = {}

    def handle_message(self, user_id, payload):
        if payload.startswith(b"stream:"):
            n = int(payload.split(b":")[1])
            chunks = [bytes([i % 256]) * 1000 for i in range(n)]
            return StreamingResponse(
                header=b"streamed", chunks=chunks, body_len=1000 * n
            )
        return b"echo:" + user_id.encode() + b":" + payload

    def open_upload(self, user_id, header):
        app = self

        class Sink:
            def __init__(self):
                self.parts = []

            def write(self, chunk):
                self.parts.append(chunk)

            def finish(self):
                app.uploads[header] = b"".join(self.parts)
                return b"stored %d" % len(app.uploads[header])

            def abort(self):
                pass

        return Sink()


def _build_world(app, user_key, second_key, tamper=None):
    """A handshaken client/server pair around ``app``; ``tamper`` rewrites
    the list of records the enclave returns for one inbound record."""
    env = lan_env()
    ca = CertificateAuthority(key_bits=1024)
    trusted = TrustedTlsInterface(app, ca.public_key, clock=env.clock)
    trusted.install_identity(ServerIdentity(server_certificate(ca, second_key, "srv"), second_key))
    replies = []

    def forward(session_id, raw):
        out = trusted.on_record(session_id, raw)
        replies.append(out)
        return tamper(out) if tamper is not None else out

    untrusted = UntrustedTlsInterface(trusted.new_session, forward, trusted.close_session)
    listener = Listener(env.link, untrusted.attach)

    client_cert = ca.issue_client_certificate("alice", user_key.public_key)
    client = TlsClient(
        Endpoint(listener).connect(),
        ClientIdentity(client_cert, user_key),
        ca.public_key,
        clock=env.clock,
    )
    client.handshake()
    return {
        "env": env, "ca": ca, "app": app, "trusted": trusted,
        "untrusted": untrusted, "listener": listener, "client": client,
        "replies": replies,
    }


@pytest.fixture()
def world(user_key, second_key):
    return _build_world(EchoApp(), user_key, second_key)


class TestRequests:
    def test_simple_request(self, world):
        assert world["client"].request(b"ping") == b"echo:alice:ping"

    def test_large_request_is_chunked(self, world):
        payload = bytes(2 * STREAM_CHUNK + 100)
        response = world["client"].request(payload)
        assert response == b"echo:alice:" + payload

    def test_streamed_response_reassembled(self, world):
        header, body = world["client"].request_full(b"stream:3")
        assert header == b"streamed"
        assert len(body) == 3000

    def test_sequential_requests_share_session(self, world):
        for i in range(5):
            assert world["client"].request(b"%d" % i) == b"echo:alice:%d" % i

    def test_upload_streams_into_sink(self, world):
        data = bytes(3 * STREAM_CHUNK + 7)
        reply = world["client"].upload(b"file1", data)
        assert reply == b"stored %d" % len(data)
        assert world["app"].uploads[b"file1"] == data

    def test_empty_upload(self, world):
        assert world["client"].upload(b"empty", b"") == b"stored 0"


class TestFailureModes:
    def test_request_before_handshake(self, world):
        fresh = TlsClient(
            Endpoint(world["listener"]).connect(),
            ClientIdentity(world["client"]._identity.certificate, world["client"]._identity.private_key),
            world["ca"].public_key,
            clock=world["env"].clock,
        )
        with pytest.raises(TlsError):
            fresh.request(b"early")

    def test_server_without_identity_rejects_sessions(self, user_key):
        ca = CertificateAuthority(key_bits=1024)
        trusted = TrustedTlsInterface(EchoApp(), ca.public_key, clock=lan_env().clock)
        with pytest.raises(TlsError):
            trusted.new_session()

    def test_application_error_becomes_alert(self, world):
        class BoomApp:
            def handle_message(self, user_id, payload):
                raise RuntimeError("internal explosion")

            def open_upload(self, user_id, header):
                raise RuntimeError("no uploads")

        world["trusted"]._application = BoomApp()
        with pytest.raises(TlsError, match="alert"):
            world["client"].request(b"trigger")

    def test_unknown_session_yields_alert(self, world):
        replies = world["trusted"].on_record(9999, b"garbage")
        assert len(replies) == 1  # a single alert record

    def test_records_forwarded_counter(self, world):
        before = world["untrusted"].records_forwarded
        world["client"].request(b"x")
        assert world["untrusted"].records_forwarded > before


class TestIdentityRotation:
    def test_server_certificate_can_be_replaced(self, world, second_key):
        """The CA may re-issue the server certificate at any time; new
        connections see the new certificate."""
        new_cert = server_certificate(world["ca"], second_key, "srv-renewed")
        world["trusted"].install_identity(ServerIdentity(new_cert, second_key))
        client = TlsClient(
            Endpoint(world["listener"]).connect(),
            world["client"]._identity,
            world["ca"].public_key,
            clock=world["env"].clock,
        )
        client.handshake()
        assert client.server_uid == "srv-renewed"
        # The old session still works (its keys are unaffected).
        assert world["client"].request(b"still alive") == b"echo:alice:still alive"


def _body(n: int) -> bytes:
    return bytes((i * 31 + (i >> 8)) % 251 for i in range(n))


class StreamApp:
    """Streams ``body`` in ``piece``-byte chunks, announcing ``announce``
    bytes (the true length unless a test lies); counts the bytes pulled."""

    def __init__(self, body: bytes, piece: int = 4096, announce: int | None = None):
        self.body = body
        self.piece = piece
        self.announce = len(body) if announce is None else announce
        self.pulled = 0

    def _chunks(self):
        for start in range(0, len(self.body), self.piece):
            chunk = self.body[start : start + self.piece]
            self.pulled += len(chunk)
            yield chunk

    def handle_message(self, user_id, payload):
        return StreamingResponse(header=b"file", chunks=self._chunks(), body_len=self.announce)

    def open_upload(self, user_id, header):
        raise AssertionError("no uploads here")


def _records_of(n: int) -> int:
    return 1 + -(-n // STREAM_CHUNK)


class TestStreamedResponseFraming:
    """Downloads leave in STREAM_CHUNK records whatever the chunk size."""

    @pytest.mark.parametrize("n", [0, 1, 4096, 65535, 65536, 65537, 4 * 1024 * 1024])
    def test_round_trip_and_record_count(self, user_key, second_key, n):
        body = _body(n) if n < 100_000 else _body(8192) * (n // 8192)
        world = _build_world(StreamApp(body), user_key, second_key)
        header, got = world["client"].request_full(b"get")
        assert header == b"file"
        assert got == body
        assert len(world["replies"][-1]) == _records_of(n)

    @pytest.mark.parametrize("piece", [1000, 4096, STREAM_CHUNK, STREAM_CHUNK + 1, 3 * STREAM_CHUNK])
    def test_any_chunk_size_is_reframed(self, user_key, second_key, piece):
        body = _body(70_001) * 3
        world = _build_world(StreamApp(body, piece=piece), user_key, second_key)
        assert world["client"].request_full(b"get") == (b"file", body)
        assert len(world["replies"][-1]) == _records_of(len(body))

    def test_empty_chunks_add_no_record(self, user_key, second_key):
        parts = [b"", b"x" * 10, b"", b"y" * STREAM_CHUNK, b"", b"z" * (STREAM_CHUNK - 10), b""]

        class App(StreamApp):
            def _chunks(self):
                return iter(parts)

        world = _build_world(App(b"".join(parts)), user_key, second_key)
        assert world["client"].request_full(b"get") == (b"file", b"".join(parts))
        assert len(world["replies"][-1]) == 3

    @pytest.mark.parametrize("attack", ["drop", "duplicate", "reorder"])
    def test_mangled_body_record_is_rejected(self, user_key, second_key, attack):
        def tamper(out):
            if len(out) < 4:
                return out  # handshake and header-only replies
            out = list(out)
            if attack == "drop":
                del out[2]
            elif attack == "duplicate":
                out.insert(2, out[2])
            else:
                out[1], out[2] = out[2], out[1]
            return out

        world = _build_world(StreamApp(_body(4096) * 64), user_key, second_key, tamper)
        with pytest.raises(TlsError, match="authentication failed"):
            world["client"].request_full(b"get")

    @pytest.mark.parametrize("delta", [-4096, -1, 1, 4096, STREAM_CHUNK])
    def test_stream_that_misses_its_length_tears_the_session_down(self, user_key, second_key, delta):
        body = _body(4096) * 40
        app = StreamApp(body, announce=len(body) + delta)
        world = _build_world(app, user_key, second_key)
        with pytest.raises(TlsError, match="alert"):
            world["client"].request_full(b"get")
        assert len(world["replies"][-1]) == 1  # the alert alone: no body record left
        app.announce = len(body)
        with pytest.raises(TlsError, match="alert"):  # unknown session from here on
            world["client"].request_full(b"get")

    def test_overlong_stream_is_cut_at_the_first_excess_chunk(self, user_key, second_key):
        app = StreamApp(_body(4096) * 100, announce=10 * 4096)
        world = _build_world(app, user_key, second_key)
        with pytest.raises(TlsError, match="alert"):
            world["client"].request_full(b"get")
        assert app.pulled == 11 * 4096

    def test_header_count_must_match_body_len(self, user_key, second_key, monkeypatch):
        from repro.tls import channel

        honest = channel._message_header

        def lying(kind, header_payload, n_chunks, body_len):
            if kind == channel._KIND_STREAM and header_payload == b"file":
                n_chunks += 1
            return honest(kind, header_payload, n_chunks, body_len)

        world = _build_world(StreamApp(_body(4096) * 20), user_key, second_key)
        monkeypatch.setattr(channel, "_message_header", lying)
        with pytest.raises(TlsError, match="record count"):
            world["client"].request_full(b"get")

    @pytest.mark.parametrize("piece", [4096, 5000])
    def test_chunks_are_pulled_as_records_fill(self, user_key, second_key, monkeypatch, piece):
        """The constant-buffer claim, by counting: when body record k is
        protected, the chunk iterator is at most STREAM_CHUNK + one chunk
        past the end of record k - 1; nothing is pulled for the header."""
        body = _body(8192) * 512  # 4 MiB
        app = StreamApp(body, piece=piece)
        world = _build_world(app, user_key, second_key)
        server_protect_pulled = []
        protect = TlsSession.protect

        def spy(session, plaintext):
            if not session._is_client:
                server_protect_pulled.append(app.pulled)
            return protect(session, plaintext)

        monkeypatch.setattr(TlsSession, "protect", spy)
        assert world["client"].request_full(b"get") == (b"file", body)
        assert len(server_protect_pulled) == _records_of(len(body))
        assert server_protect_pulled[0] == 0
        for k, pulled in enumerate(server_protect_pulled[1:], start=1):
            assert pulled - (k - 1) * STREAM_CHUNK <= STREAM_CHUNK + piece, f"record {k}"
