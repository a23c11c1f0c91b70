"""Record protection: sequence enforcement, replay/reorder/reflection."""

import pytest

from repro.errors import TlsError
from repro.netsim import SimClock
from repro.tls.handshake import SessionKeys
from repro.tls.session import STREAM_CHUNK, CryptoCostProfile, TlsSession, chunk_payload

KEYS = SessionKeys(client_write=bytes(16), server_write=bytes(15) + b"\x01")


def pair():
    clock = SimClock()
    return TlsSession(KEYS, is_client=True, clock=clock), TlsSession(KEYS, is_client=False, clock=clock)


class TestRecordProtection:
    def test_round_trip_both_directions(self):
        client, server = pair()
        assert server.unprotect(client.protect(b"up")) == b"up"
        assert client.unprotect(server.protect(b"down")) == b"down"

    def test_sequence_advances(self):
        client, server = pair()
        for i in range(3):
            assert server.unprotect(client.protect(bytes([i]))) == bytes([i])

    def test_replay_rejected(self):
        client, server = pair()
        record = client.protect(b"once")
        server.unprotect(record)
        with pytest.raises(TlsError):
            server.unprotect(record)

    def test_reorder_rejected(self):
        client, server = pair()
        first = client.protect(b"one")
        second = client.protect(b"two")
        with pytest.raises(TlsError):
            server.unprotect(second)
        del first

    def test_drop_detected(self):
        client, server = pair()
        client.protect(b"dropped by attacker")
        survivor = client.protect(b"arrives")
        with pytest.raises(TlsError):
            server.unprotect(survivor)

    def test_reflection_rejected(self):
        # A record sent client->server cannot be reflected back to the client.
        client, _ = pair()
        record = client.protect(b"boomerang")
        with pytest.raises(TlsError):
            client.unprotect(record)

    def test_tamper_rejected(self):
        client, server = pair()
        record = bytearray(client.protect(b"payload"))
        record[-1] ^= 1
        with pytest.raises(TlsError):
            server.unprotect(bytes(record))


class TestCosts:
    def test_crypto_time_charged(self):
        clock = SimClock()
        costs = CryptoCostProfile(aead_bytes_per_second=1e6, per_record=0.001)
        session = TlsSession(KEYS, is_client=True, clock=clock, costs=costs)
        session.protect(bytes(1_000_000))
        assert clock.now() == pytest.approx(1.001)


class TestChunking:
    def test_chunk_sizes(self):
        chunks = chunk_payload(bytes(STREAM_CHUNK * 2 + 5))
        assert [len(c) for c in chunks] == [STREAM_CHUNK, STREAM_CHUNK, 5]

    def test_empty_payload_is_one_chunk(self):
        assert chunk_payload(b"") == [b""]

    def test_reassembly(self):
        data = bytes(range(256)) * 1000
        assert b"".join(chunk_payload(data)) == data
