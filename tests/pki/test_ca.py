"""The certificate authority: issuance, validation, revocation."""

import pytest

from repro.crypto import rsa
from repro.errors import CertificateError
from repro.pki import CertificateAuthority, CertificateUsage
from repro.pki.certificate import CertificateSigningRequest
from tests.support.rsa_ref import REFUSED_PUBLIC_KEYS


@pytest.fixture(scope="module")
def subject_key():
    return rsa.generate_keypair(1024)


@pytest.fixture(scope="module")
def authority():
    return CertificateAuthority(name="test-ca", key_bits=1024)


class TestClientCertificates:
    def test_issue_and_validate(self, authority, subject_key):
        cert = authority.issue_client_certificate(
            "alice", subject_key.public_key, mail="a@corp.example", full_name="Alice A."
        )
        authority.validate(cert, CertificateUsage.CLIENT)
        assert cert.user_id == "alice"
        assert cert.attributes["mail"] == "a@corp.example"
        assert cert.issuer == "test-ca"

    def test_serials_are_unique(self, authority, subject_key):
        a = authority.issue_client_certificate("u1", subject_key.public_key)
        b = authority.issue_client_certificate("u2", subject_key.public_key)
        assert a.serial != b.serial

    def test_wrong_usage_rejected(self, authority, subject_key):
        cert = authority.issue_client_certificate("alice", subject_key.public_key)
        with pytest.raises(CertificateError):
            authority.validate(cert, CertificateUsage.SERVER)

    @pytest.mark.parametrize("refuse", REFUSED_PUBLIC_KEYS.values(), ids=REFUSED_PUBLIC_KEYS.keys())
    def test_ca_key_openssl_refuses_is_a_certificate_error(self, authority, subject_key, refuse):
        cert = authority.issue_client_certificate("alice", subject_key.public_key)
        with pytest.raises(CertificateError, match="invalid signature"):
            cert.verify(refuse(authority.public_key))

    def test_foreign_issuer_rejected(self, subject_key):
        ca_a = CertificateAuthority(name="ca-a", key_bits=1024)
        ca_b = CertificateAuthority(name="ca-b", key_bits=1024)
        cert = ca_a.issue_client_certificate("alice", subject_key.public_key)
        with pytest.raises(CertificateError):
            ca_b.validate(cert, CertificateUsage.CLIENT)


class TestServerCertificates:
    def test_sign_csr(self, authority, subject_key):
        csr = CertificateSigningRequest(
            subject="enclave", usage=CertificateUsage.SERVER, public_key=subject_key.public_key
        )
        cert = authority.sign_csr(csr)
        authority.validate(cert, CertificateUsage.SERVER)

    def test_client_csr_rejected(self, authority, subject_key):
        csr = CertificateSigningRequest(
            subject="sneaky", usage=CertificateUsage.CLIENT, public_key=subject_key.public_key
        )
        with pytest.raises(CertificateError):
            authority.sign_csr(csr)


class TestRevocation:
    def test_revoked_certificate_fails_validation(self, subject_key):
        authority = CertificateAuthority(key_bits=1024)
        cert = authority.issue_client_certificate("alice", subject_key.public_key)
        authority.validate(cert, CertificateUsage.CLIENT)
        authority.revoke(cert.serial)
        with pytest.raises(CertificateError):
            authority.validate(cert, CertificateUsage.CLIENT)

    def test_revoke_unknown_serial(self, subject_key):
        authority = CertificateAuthority(key_bits=1024)
        with pytest.raises(CertificateError):
            authority.revoke(999)


class TestAdminMessages:
    def test_sign_message_verifies_with_ca_key(self, authority):
        signature = authority.sign_message(b"reset please")
        assert rsa.verify(authority.public_key, b"reset please", signature)
        assert not rsa.verify(authority.public_key, b"other", signature)
