"""The certificate authority: X.509 issuance and PKCS#10 signing."""

import pytest
from cryptography import x509
from cryptography.hazmat.primitives.serialization import Encoding
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from repro.crypto import rsa
from repro.errors import CertificateError
from repro.pki import CertificateAuthority
from repro.tls.handshake import check_certificate
from tests.support.pki import server_csr
from tests.support.rsa_ref import REFUSED_PUBLIC_KEYS

CLIENT = ExtendedKeyUsageOID.CLIENT_AUTH
SERVER = ExtendedKeyUsageOID.SERVER_AUTH


@pytest.fixture(scope="module")
def subject_key():
    return rsa.generate_keypair(1024)


@pytest.fixture(scope="module")
def authority():
    return CertificateAuthority(name="test-ca", key_bits=1024)


def der(cert) -> bytes:
    return cert.public_bytes(Encoding.DER)


class TestClientCertificates:
    def test_issue_and_validate(self, authority, subject_key):
        cert = authority.issue_client_certificate(
            "alice", subject_key.public_key, mail="a@corp.example", full_name="Alice A."
        )
        assert check_certificate(der(cert), authority.public_key, CLIENT) == ("alice", subject_key.public_key)
        assert cert.subject.get_attributes_for_oid(NameOID.EMAIL_ADDRESS)[0].value == "a@corp.example"
        assert cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)[0].value == "Alice A."
        assert cert.issuer.rfc4514_string() == "CN=test-ca"

    def test_serials_are_unique(self, authority, subject_key):
        a = authority.issue_client_certificate("u1", subject_key.public_key)
        b = authority.issue_client_certificate("u2", subject_key.public_key)
        assert a.serial_number != b.serial_number

    def test_wrong_usage_rejected(self, authority, subject_key):
        cert = authority.issue_client_certificate("alice", subject_key.public_key)
        with pytest.raises(CertificateError):
            check_certificate(der(cert), authority.public_key, SERVER)

    @pytest.mark.parametrize("refuse", REFUSED_PUBLIC_KEYS.values(), ids=REFUSED_PUBLIC_KEYS.keys())
    def test_ca_key_openssl_refuses_is_a_certificate_error(self, authority, subject_key, refuse):
        cert = authority.issue_client_certificate("alice", subject_key.public_key)
        with pytest.raises(CertificateError, match="invalid signature"):
            check_certificate(der(cert), refuse(authority.public_key), CLIENT)

    # OpenSSL loads an even n as a public key; it refuses it only at verify.
    @pytest.mark.parametrize("refused", ["e=0", "e=1", "n=0"])
    def test_subject_key_openssl_refuses_is_a_certificate_error(self, authority, subject_key, refused):
        refuse = REFUSED_PUBLIC_KEYS[refused]
        with pytest.raises(CertificateError, match="OpenSSL refuses"):
            authority.issue_client_certificate("alice", refuse(subject_key.public_key))

    def test_foreign_issuer_rejected(self, subject_key):
        ca_a = CertificateAuthority(name="ca-a", key_bits=1024)
        ca_b = CertificateAuthority(name="ca-b", key_bits=1024)
        cert = ca_a.issue_client_certificate("alice", subject_key.public_key)
        with pytest.raises(CertificateError):
            check_certificate(der(cert), ca_b.public_key, CLIENT)


class TestServerCertificates:
    def test_sign_csr(self, authority, subject_key):
        cert = authority.sign_csr(server_csr(subject_key, uid="enclave"))
        assert check_certificate(der(cert), authority.public_key, SERVER) == ("enclave", subject_key.public_key)

    def test_client_csr_rejected(self, authority, subject_key):
        for usages in [(CLIENT,), (SERVER, CLIENT), ()]:
            with pytest.raises(CertificateError, match="server certificate"):
                authority.sign_csr(server_csr(subject_key, uid="sneaky", usages=usages))

    def test_csr_with_a_bad_self_signature_rejected(self, authority, subject_key):
        raw = der(server_csr(subject_key))
        tampered = x509.load_der_x509_csr(raw[:-1] + bytes([raw[-1] ^ 1]))
        with pytest.raises(CertificateError, match="self-signature"):
            authority.sign_csr(tampered)


class TestAdminMessages:
    def test_sign_message_verifies_with_ca_key(self, authority):
        signature = authority.sign_message(b"reset please")
        assert rsa.verify(authority.public_key, b"reset please", signature)
        assert not rsa.verify(authority.public_key, b"other", signature)
