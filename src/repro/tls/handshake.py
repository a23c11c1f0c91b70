"""The mutually-authenticated handshake.

Message flow (a compressed TLS 1.2 with client authentication)::

    Client                                   Server (trusted interface)
    ClientHello {client_random,
                 client_certificate}  ---->
                                      <----  ServerHello {server_random,
                                             server_certificate, dh_public,
                                             signature(randoms || dh_public)}
    ClientKeyExchange {dh_public,
        signature(randoms || both dh
        publics)}                     ---->
    Finished {transcript MAC}         ---->
                                      <----  Finished {transcript MAC}

Both sides derive ``client_write_key``/``server_write_key`` from the DH
shared secret and the two randoms via HKDF.  The server signs with the
private key whose certificate the CA provisioned during attestation, so a
client that trusts the CA's public key knows the far end is a genuine
SeGShare enclave *without* running remote attestation itself — the
property the paper highlights in Section IV-A.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.crypto import dh, rsa
from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.errors import CertificateError, CryptoError, TlsError
from repro.pki import Certificate, CertificateUsage
from repro.util.serialization import Reader, Writer

RANDOM_SIZE = 32


@dataclass(frozen=True)
class ClientIdentity:
    """A user's authentication token: certificate plus private key (P1 —
    this is the *only* client-side state SeGShare requires)."""

    certificate: Certificate
    private_key: rsa.RsaPrivateKey


@dataclass(frozen=True)
class ServerIdentity:
    """The enclave's server certificate and the matching temporary key pair."""

    certificate: Certificate
    private_key: rsa.RsaPrivateKey


@dataclass(frozen=True)
class SessionKeys:
    """Directional record keys derived from the handshake."""

    client_write: bytes
    server_write: bytes


@dataclass(frozen=True)
class ClientHello:
    client_random: bytes
    certificate: Certificate

    def serialize(self) -> bytes:
        return Writer().bytes(self.client_random).bytes(self.certificate.serialize()).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "ClientHello":
        r = Reader(data)
        random = r.bytes()
        certificate = Certificate.deserialize(r.bytes())
        r.expect_end()
        if len(random) != RANDOM_SIZE:
            raise TlsError("bad client random size")
        return cls(client_random=random, certificate=certificate)


@dataclass(frozen=True)
class ServerHello:
    server_random: bytes
    certificate: Certificate
    dh_public: bytes
    signature: bytes

    def serialize(self) -> bytes:
        return (
            Writer()
            .bytes(self.server_random)
            .bytes(self.certificate.serialize())
            .bytes(self.dh_public)
            .bytes(self.signature)
            .take()
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "ServerHello":
        r = Reader(data)
        msg = cls(
            server_random=r.bytes(),
            certificate=Certificate.deserialize(r.bytes()),
            dh_public=r.bytes(),
            signature=r.bytes(),
        )
        r.expect_end()
        return msg


@dataclass(frozen=True)
class ClientKeyExchange:
    dh_public: bytes
    signature: bytes

    def serialize(self) -> bytes:
        return Writer().bytes(self.dh_public).bytes(self.signature).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "ClientKeyExchange":
        r = Reader(data)
        msg = cls(dh_public=r.bytes(), signature=r.bytes())
        r.expect_end()
        return msg


def _server_signing_input(client_random: bytes, server_random: bytes, dh_public: bytes) -> bytes:
    return Writer().raw(b"tls-server-kx\x00").bytes(client_random).bytes(server_random).bytes(dh_public).take()


def _client_signing_input(
    client_random: bytes, server_random: bytes, server_dh: bytes, client_dh: bytes
) -> bytes:
    return (
        Writer()
        .raw(b"tls-client-kx\x00")
        .bytes(client_random)
        .bytes(server_random)
        .bytes(server_dh)
        .bytes(client_dh)
        .take()
    )


def _shared_secret(keypair: dh.DhKeyPair, peer_public: bytes) -> bytes:
    try:
        return dh.shared_secret(keypair, peer_public)
    except CryptoError as exc:
        raise TlsError("peer DH public value rejected") from exc


def derive_session_keys(shared_secret: bytes, client_random: bytes, server_random: bytes) -> SessionKeys:
    prk = hkdf_extract(client_random + server_random, shared_secret)
    material = hkdf_expand(prk, b"tls-record-keys", 32)
    return SessionKeys(client_write=material[:16], server_write=material[16:32])


def finished_mac(keys: SessionKeys, transcript: bytes, sender: str) -> bytes:
    """MAC over the handshake transcript, keyed per direction."""
    key = keys.client_write if sender == "client" else keys.server_write
    return derive_key(key, f"tls-finished/{sender}", transcript, length=32)


class ClientHandshake:
    """Client-side handshake state machine."""

    def __init__(self, identity: ClientIdentity, ca_public_key: rsa.RsaPublicKey) -> None:
        self._identity = identity
        self._ca_public_key = ca_public_key
        self._client_random = secrets.token_bytes(RANDOM_SIZE)
        self._dh_keypair = dh.generate_keypair()
        self._transcript = b""
        self.keys: SessionKeys | None = None
        self.server_certificate: Certificate | None = None

    def client_hello(self) -> bytes:
        message = ClientHello(self._client_random, self._identity.certificate).serialize()
        self._transcript += message
        return message

    def handle_server_hello(self, data: bytes) -> bytes:
        """Process the ServerHello; returns the ClientKeyExchange message."""
        self._transcript += data
        hello = ServerHello.deserialize(data)
        try:
            hello.certificate.verify(self._ca_public_key)
            hello.certificate.require_usage(CertificateUsage.SERVER)
        except CertificateError as exc:
            raise TlsError(f"server certificate rejected: {exc}") from exc
        signing_input = _server_signing_input(
            self._client_random, hello.server_random, hello.dh_public
        )
        if not rsa.verify(hello.certificate.public_key, signing_input, hello.signature):
            raise TlsError("server key-exchange signature is invalid")
        self.server_certificate = hello.certificate

        client_dh = self._dh_keypair.public_bytes()
        signature = rsa.sign(
            self._identity.private_key,
            _client_signing_input(
                self._client_random, hello.server_random, hello.dh_public, client_dh
            ),
        )
        kx = ClientKeyExchange(dh_public=client_dh, signature=signature).serialize()
        self._transcript += kx

        secret = _shared_secret(self._dh_keypair, hello.dh_public)
        self.keys = derive_session_keys(secret, self._client_random, hello.server_random)
        return kx

    def client_finished(self) -> bytes:
        if self.keys is None:
            raise TlsError("handshake not ready for Finished")
        mac = finished_mac(self.keys, self._transcript, "client")
        self._transcript += mac
        return mac

    def verify_server_finished(self, data: bytes) -> None:
        if self.keys is None:
            raise TlsError("handshake not ready for Finished")
        expected = finished_mac(self.keys, self._transcript, "server")
        if not secrets.compare_digest(expected, data):
            raise TlsError("server Finished MAC mismatch")


class ServerHandshake:
    """Server-side (in-enclave) handshake state machine."""

    def __init__(self, identity: ServerIdentity, ca_public_key: rsa.RsaPublicKey) -> None:
        self._identity = identity
        self._ca_public_key = ca_public_key
        self._server_random = secrets.token_bytes(RANDOM_SIZE)
        self._dh_keypair = dh.generate_keypair()
        self._transcript = b""
        self._client_random: bytes | None = None
        self.keys: SessionKeys | None = None
        self.client_certificate: Certificate | None = None

    def handle_client_hello(self, data: bytes) -> bytes:
        """Validate the client certificate and produce the ServerHello."""
        self._transcript += data
        hello = ClientHello.deserialize(data)
        try:
            hello.certificate.verify(self._ca_public_key)
            hello.certificate.require_usage(CertificateUsage.CLIENT)
        except CertificateError as exc:
            raise TlsError(f"client certificate rejected: {exc}") from exc
        self.client_certificate = hello.certificate
        self._client_random = hello.client_random

        dh_public = self._dh_keypair.public_bytes()
        signature = rsa.sign(
            self._identity.private_key,
            _server_signing_input(hello.client_random, self._server_random, dh_public),
        )
        reply = ServerHello(
            server_random=self._server_random,
            certificate=self._identity.certificate,
            dh_public=dh_public,
            signature=signature,
        ).serialize()
        self._transcript += reply
        return reply

    def handle_client_key_exchange(self, data: bytes) -> None:
        if self.client_certificate is None or self._client_random is None:
            raise TlsError("ClientKeyExchange before ClientHello")
        self._transcript += data
        kx = ClientKeyExchange.deserialize(data)
        signing_input = _client_signing_input(
            self._client_random,
            self._server_random,
            self._dh_keypair.public_bytes(),
            kx.dh_public,
        )
        if not rsa.verify(self.client_certificate.public_key, signing_input, kx.signature):
            raise TlsError("client key-exchange signature is invalid")
        secret = _shared_secret(self._dh_keypair, kx.dh_public)
        self.keys = derive_session_keys(secret, self._client_random, self._server_random)

    def verify_client_finished(self, data: bytes) -> bytes:
        """Check the client's Finished MAC; returns the server Finished."""
        if self.keys is None:
            raise TlsError("handshake not ready for Finished")
        expected = finished_mac(self.keys, self._transcript, "client")
        if not secrets.compare_digest(expected, data):
            raise TlsError("client Finished MAC mismatch")
        self._transcript += data
        return finished_mac(self.keys, self._transcript, "server")
