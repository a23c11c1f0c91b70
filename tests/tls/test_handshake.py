"""The mutually-authenticated handshake: success and every failure mode."""

import pytest

from repro.crypto import rsa
from repro.errors import TlsError
from repro.netsim import lan_env
from repro.pki import CertificateAuthority, CertificateUsage
from repro.pki.certificate import CertificateSigningRequest
from repro.tls import TrustedTlsInterface
from repro.tls.handshake import (
    ClientHandshake,
    ClientHello,
    ClientIdentity,
    ClientKeyExchange,
    ServerHandshake,
    ServerHello,
    ServerIdentity,
    _client_signing_input,
    _server_signing_input,
)
from repro.tls.records import ContentType, handshake_record, parse_record
from tests.support.rsa_ref import REFUSED_PUBLIC_KEYS


@pytest.fixture(scope="module")
def world(user_key, second_key):
    ca = CertificateAuthority(key_bits=1024)
    client_cert = ca.issue_client_certificate("alice", user_key.public_key)
    csr = CertificateSigningRequest(
        "server", CertificateUsage.SERVER, second_key.public_key
    )
    server_cert = ca.sign_csr(csr)
    return {
        "ca": ca,
        "client": ClientIdentity(client_cert, user_key),
        "server": ServerIdentity(server_cert, second_key),
    }


# Values in any but the 32-byte X25519 encoding, and low-order values in
# it: what a *certified* peer could sign and send.
REFUSED_DH_VALUES = {
    **{f"5-in-{width}-bytes": (5).to_bytes(width, "big") for width in (3, 31, 33, 255, 257, 300)},
    "1-in-256-bytes": (1).to_bytes(256, "big"),
    **{f"{value}-in-32-bytes": value.to_bytes(32, "little") for value in (0, 1)},
}
refused_dh_values = pytest.mark.parametrize(
    "dh_public", REFUSED_DH_VALUES.values(), ids=REFUSED_DH_VALUES.keys()
)


def signed_client_kx(world, client_hello: bytes, server_hello: bytes, dh_public: bytes) -> bytes:
    """The ClientKeyExchange a certified client would send for ``dh_public``:
    correctly signed, so only the DH value itself can be what is refused."""
    hello = ServerHello.deserialize(server_hello)
    client_random = ClientHello.deserialize(client_hello).client_random
    signing_input = _client_signing_input(
        client_random, hello.server_random, hello.dh_public, dh_public
    )
    signature = rsa.sign(world["client"].private_key, signing_input)
    return ClientKeyExchange(dh_public=dh_public, signature=signature).serialize()


def run_handshake(client_hs: ClientHandshake, server_hs: ServerHandshake):
    hello = client_hs.client_hello()
    server_hello = server_hs.handle_client_hello(hello)
    kx = client_hs.handle_server_hello(server_hello)
    server_hs.handle_client_key_exchange(kx)
    finished = client_hs.client_finished()
    server_finished = server_hs.verify_client_finished(finished)
    client_hs.verify_server_finished(server_finished)


class TestSuccess:
    def test_full_handshake_agrees_on_keys(self, world):
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        run_handshake(client_hs, server_hs)
        assert client_hs.keys == server_hs.keys
        assert client_hs.keys.client_write != client_hs.keys.server_write

    def test_identities_are_exchanged(self, world):
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        run_handshake(client_hs, server_hs)
        assert server_hs.client_certificate.user_id == "alice"
        assert client_hs.server_certificate.subject == "server"

    def test_sessions_have_distinct_keys(self, world):
        keys = []
        for _ in range(2):
            client_hs = ClientHandshake(world["client"], world["ca"].public_key)
            server_hs = ServerHandshake(world["server"], world["ca"].public_key)
            run_handshake(client_hs, server_hs)
            keys.append(client_hs.keys.client_write)
        assert keys[0] != keys[1]  # ephemeral DH: forward secrecy


class TestCertificateRejection:
    def test_client_cert_from_wrong_ca(self, world, user_key):
        rogue = CertificateAuthority(name="rogue", key_bits=1024)
        rogue_cert = rogue.issue_client_certificate("mallory", user_key.public_key)
        client_hs = ClientHandshake(
            ClientIdentity(rogue_cert, user_key), rogue.public_key
        )
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        with pytest.raises(TlsError, match="client certificate"):
            server_hs.handle_client_hello(client_hs.client_hello())

    def test_server_cert_from_wrong_ca(self, world, second_key):
        rogue = CertificateAuthority(name="rogue", key_bits=1024)
        csr = CertificateSigningRequest(
            "fake-server", CertificateUsage.SERVER, second_key.public_key
        )
        fake_identity = ServerIdentity(rogue.sign_csr(csr), second_key)
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        # The impostor happily accepts real client certificates; what
        # matters is that the CLIENT rejects the rogue server certificate.
        server_hs = ServerHandshake(fake_identity, world["ca"].public_key)
        server_hello = server_hs.handle_client_hello(client_hs.client_hello())
        with pytest.raises(TlsError, match="server certificate"):
            client_hs.handle_server_hello(server_hello)

    def test_client_cert_as_server_cert_rejected(self, world, user_key):
        # A valid CLIENT certificate must not authenticate a server.
        client_as_server = ServerIdentity(world["client"].certificate, user_key)
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        server_hs = ServerHandshake(client_as_server, world["ca"].public_key)
        server_hello = server_hs.handle_client_hello(client_hs.client_hello())
        with pytest.raises(TlsError):
            client_hs.handle_server_hello(server_hello)


class TestRefusedCertifiedKeys:
    @pytest.mark.parametrize("refuse", REFUSED_PUBLIC_KEYS.values(), ids=REFUSED_PUBLIC_KEYS.keys())
    def test_certified_key_openssl_refuses_is_a_tls_error(self, world, refuse):
        """A CA-signed certificate whose key OpenSSL refuses ends the
        handshake with a TlsError, in the ServerHello and the ClientHello."""
        ca = world["ca"]
        server_key = world["server"].private_key
        csr = CertificateSigningRequest("server", CertificateUsage.SERVER, refuse(server_key.public_key))
        refused_server = ServerIdentity(ca.sign_csr(csr), server_key)
        client_hs = ClientHandshake(world["client"], ca.public_key)
        server_hello = ServerHandshake(refused_server, ca.public_key).handle_client_hello(
            client_hs.client_hello()
        )
        with pytest.raises(TlsError, match="signature"):
            client_hs.handle_server_hello(server_hello)

        client_key = world["client"].private_key
        refused_cert = ca.issue_client_certificate("mallory", refuse(client_key.public_key))
        client_hs = ClientHandshake(ClientIdentity(refused_cert, client_key), ca.public_key)
        server_hs = ServerHandshake(world["server"], ca.public_key)
        kx = client_hs.handle_server_hello(server_hs.handle_client_hello(client_hs.client_hello()))
        with pytest.raises(TlsError, match="signature"):
            server_hs.handle_client_key_exchange(kx)
        assert server_hs.keys is None


class TestActiveAttacks:
    def test_substituted_server_dh_rejected(self, world):
        """A MITM replacing the server's DH value breaks the signature."""
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        server_hello = ServerHello.deserialize(
            server_hs.handle_client_hello(client_hs.client_hello())
        )
        from repro.crypto import dh

        mitm = dh.generate_keypair()
        forged = ServerHello(
            server_random=server_hello.server_random,
            certificate=server_hello.certificate,
            dh_public=mitm.public_bytes(),
            signature=server_hello.signature,
        )
        with pytest.raises(TlsError, match="signature"):
            client_hs.handle_server_hello(forged.serialize())

    def test_substituted_client_dh_rejected(self, world):
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        server_hello = server_hs.handle_client_hello(client_hs.client_hello())
        kx = ClientKeyExchange.deserialize(client_hs.handle_server_hello(server_hello))
        from repro.crypto import dh

        mitm = dh.generate_keypair()
        forged = ClientKeyExchange(dh_public=mitm.public_bytes(), signature=kx.signature)
        with pytest.raises(TlsError, match="signature"):
            server_hs.handle_client_key_exchange(forged.serialize())

    @refused_dh_values
    def test_signed_bad_server_dh_rejected(self, world, dh_public):
        """A certified server that signs a DH value the client must refuse
        gets a TlsError, not a bare CryptoError."""
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        client_random = ClientHello.deserialize(client_hs.client_hello()).client_random
        server_random = b"\x5a" * 32
        forged = ServerHello(
            server_random=server_random,
            certificate=world["server"].certificate,
            dh_public=dh_public,
            signature=rsa.sign(
                world["server"].private_key,
                _server_signing_input(client_random, server_random, dh_public),
            ),
        )
        with pytest.raises(TlsError, match="DH public value"):
            client_hs.handle_server_hello(forged.serialize())
        assert client_hs.keys is None

    @refused_dh_values
    def test_signed_bad_client_dh_rejected(self, world, dh_public):
        client_hello = ClientHandshake(world["client"], world["ca"].public_key).client_hello()
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        server_hello = server_hs.handle_client_hello(client_hello)
        forged = signed_client_kx(world, client_hello, server_hello, dh_public)
        with pytest.raises(TlsError, match="DH public value"):
            server_hs.handle_client_key_exchange(forged)
        assert server_hs.keys is None

    @refused_dh_values
    def test_signed_bad_client_dh_ends_in_an_alert(self, world, dh_public):
        """Through the enclave's record interface the same message tears the
        session down with one alert record and nothing else."""
        trusted = TrustedTlsInterface(None, world["ca"].public_key, clock=lan_env().clock)
        trusted.install_identity(world["server"])
        session_id = trusted.new_session()
        client_hello = ClientHandshake(world["client"], world["ca"].public_key).client_hello()
        (reply,) = trusted.on_record(session_id, handshake_record(client_hello))
        server_hello = parse_record(reply, ContentType.HANDSHAKE)
        forged = signed_client_kx(world, client_hello, server_hello, dh_public)
        (alert,) = trusted.on_record(session_id, handshake_record(forged))
        with pytest.raises(TlsError, match="alert: session error"):
            parse_record(alert, ContentType.HANDSHAKE)
        (gone,) = trusted.on_record(session_id, handshake_record(b"anything"))
        with pytest.raises(TlsError, match="alert: unknown session"):
            parse_record(gone, ContentType.HANDSHAKE)

    def test_wrong_finished_mac_rejected(self, world):
        client_hs = ClientHandshake(world["client"], world["ca"].public_key)
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        server_hello = server_hs.handle_client_hello(client_hs.client_hello())
        kx = client_hs.handle_server_hello(server_hello)
        server_hs.handle_client_key_exchange(kx)
        with pytest.raises(TlsError, match="Finished"):
            server_hs.verify_client_finished(b"\x00" * 32)

    def test_messages_out_of_order_rejected(self, world):
        server_hs = ServerHandshake(world["server"], world["ca"].public_key)
        with pytest.raises(TlsError):
            server_hs.handle_client_key_exchange(b"premature")
