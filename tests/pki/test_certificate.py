"""Certificates and CSRs: serialization, verification, usage checks."""

import hashlib

import pytest

from repro.crypto import rsa
from repro.errors import CertificateError
from repro.pki import Certificate, CertificateSigningRequest, CertificateUsage
from tests.crypto.test_rsa import FIXED_KEY


@pytest.fixture(scope="module")
def ca_key():
    return rsa.generate_keypair(1024)


@pytest.fixture(scope="module")
def subject_key():
    return rsa.generate_keypair(1024)


def make_cert(ca_key, subject_key, usage=CertificateUsage.CLIENT, **attrs) -> Certificate:
    unsigned = Certificate(
        serial=7,
        subject="alice",
        issuer="test-ca",
        usage=usage,
        public_key=subject_key.public_key,
        attributes=attrs or {"uid": "alice"},
        signature=b"",
    )
    return Certificate(
        serial=unsigned.serial,
        subject=unsigned.subject,
        issuer=unsigned.issuer,
        usage=unsigned.usage,
        public_key=unsigned.public_key,
        attributes=unsigned.attributes,
        signature=rsa.sign(ca_key, unsigned.tbs_bytes()),
    )


class TestCertificate:
    def test_round_trip(self, ca_key, subject_key):
        cert = make_cert(ca_key, subject_key, mail="a@example.com", uid="alice")
        restored = Certificate.deserialize(cert.serialize())
        assert restored == cert

    def test_known_answer(self):
        """Certificate bytes for a fixed key are what they always were."""
        fixed = rsa.RsaPrivateKey.deserialize(FIXED_KEY)
        digest = hashlib.sha256(make_cert(fixed, fixed).serialize()).hexdigest()
        assert digest == "ca859e0c27420d15577d20152a9d8f283a9c98aaeba559b902fbb2a6ffcfa073"

    def test_verify_accepts_valid(self, ca_key, subject_key):
        make_cert(ca_key, subject_key).verify(ca_key.public_key)

    def test_verify_rejects_wrong_ca(self, ca_key, subject_key):
        other = rsa.generate_keypair(1024)
        with pytest.raises(CertificateError):
            make_cert(ca_key, subject_key).verify(other.public_key)

    def test_verify_rejects_attribute_tamper(self, ca_key, subject_key):
        cert = make_cert(ca_key, subject_key, uid="alice")
        forged = Certificate(
            serial=cert.serial,
            subject=cert.subject,
            issuer=cert.issuer,
            usage=cert.usage,
            public_key=cert.public_key,
            attributes={"uid": "mallory"},
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            forged.verify(ca_key.public_key)

    def test_usage_enforced(self, ca_key, subject_key):
        cert = make_cert(ca_key, subject_key, usage=CertificateUsage.CLIENT)
        cert.require_usage(CertificateUsage.CLIENT)
        with pytest.raises(CertificateError):
            cert.require_usage(CertificateUsage.SERVER)

    def test_user_id_from_uid_attribute(self, ca_key, subject_key):
        assert make_cert(ca_key, subject_key, uid="u42").user_id == "u42"

    def test_user_id_falls_back_to_subject(self, ca_key, subject_key):
        cert = make_cert(ca_key, subject_key, other="x")
        assert cert.user_id == "alice"

    def test_attribute_order_does_not_change_tbs(self, ca_key, subject_key):
        a = make_cert(ca_key, subject_key, uid="u", mail="m")
        b = make_cert(ca_key, subject_key, mail="m", uid="u")
        assert a.tbs_bytes() == b.tbs_bytes()


class TestCsr:
    def test_round_trip(self, subject_key):
        csr = CertificateSigningRequest(
            subject="enclave",
            usage=CertificateUsage.SERVER,
            public_key=subject_key.public_key,
            attributes={"measurement": "ab" * 32},
        )
        restored = CertificateSigningRequest.deserialize(csr.serialize())
        assert restored == csr
