"""X.509 certificates and PKCS#10 CSRs: the enclave's one check, check_certificate."""

import datetime
import hashlib

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from repro.crypto import rsa
from repro.errors import CertificateError
from repro.pki import CertificateAuthority
from repro.pki.ca import NOT_AFTER, NOT_BEFORE
from repro.tls.handshake import check_certificate
from tests.crypto.test_rsa import FIXED_KEY
from tests.support.pki import server_csr

CLIENT = ExtendedKeyUsageOID.CLIENT_AUTH
SERVER = ExtendedKeyUsageOID.SERVER_AUTH


@pytest.fixture(scope="module")
def ca_key():
    return rsa.generate_keypair(1024)


@pytest.fixture(scope="module")
def subject_key():
    return rsa.generate_keypair(1024)


def make_cert(ca_key, subject_key, **identity) -> bytes:
    """A client certificate from a CA over ``ca_key``, as DER."""
    ca = CertificateAuthority(name="test-ca", key=ca_key)
    user_id = identity.pop("uid", "alice")
    return ca.issue_client_certificate(user_id, subject_key.public_key, **identity).public_bytes(Encoding.DER)


def build(ca_key, subject, public_key, usages=(CLIENT,)) -> bytes:
    """A certificate the CA's issuing methods would never produce."""
    builder = (
        x509.CertificateBuilder()
        .subject_name(x509.Name(subject))
        .issuer_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "test-ca")]))
        .public_key(public_key)
        .serial_number(7)
        .not_valid_before(datetime.datetime(2020, 1, 1))
        .not_valid_after(datetime.datetime(2049, 1, 1))
    )
    if usages:
        builder = builder.add_extension(x509.ExtendedKeyUsage(list(usages)), critical=False)
    return builder.sign(ca_key.openssl_key, hashes.SHA256()).public_bytes(Encoding.DER)


class TestCertificate:
    def test_round_trip(self, ca_key, subject_key):
        der = make_cert(ca_key, subject_key, mail="a@example.com")
        cert = x509.load_der_x509_certificate(der)
        assert cert.public_bytes(Encoding.DER) == der
        assert cert.serial_number == 1
        assert cert.subject.get_attributes_for_oid(NameOID.USER_ID)[0].value == "alice"
        assert cert.subject.get_attributes_for_oid(NameOID.EMAIL_ADDRESS)[0].value == "a@example.com"
        assert list(cert.extensions.get_extension_for_class(x509.ExtendedKeyUsage).value) == [CLIENT]
        assert (cert.not_valid_before_utc, cert.not_valid_after_utc) == (NOT_BEFORE, NOT_AFTER)

    def test_known_answer(self):
        """Certificate bytes for a fixed key are what they always were: no
        wall clock and no randomness goes into a certificate."""
        fixed = rsa.RsaPrivateKey.deserialize(FIXED_KEY)
        digest = hashlib.sha256(make_cert(fixed, fixed)).hexdigest()
        assert digest == "8525199a355b95754f38582dea335c4284bedae7782e3a49fcfaf860f4af9f7b"

    def test_der_length_is_key_independent(self, ca_key, subject_key, user_key, second_key):
        lengths = {len(make_cert(ca_key, key)) for key in (ca_key, subject_key, user_key, second_key)}
        assert len(lengths) == 1

    def test_verify_accepts_valid(self, ca_key, subject_key):
        der = make_cert(ca_key, subject_key)
        assert check_certificate(der, ca_key.public_key, CLIENT) == ("alice", subject_key.public_key)

    def test_verify_rejects_wrong_ca(self, ca_key, subject_key):
        other = rsa.generate_keypair(1024)
        with pytest.raises(CertificateError, match="invalid signature"):
            check_certificate(make_cert(ca_key, subject_key), other.public_key, CLIENT)

    def test_verify_rejects_attribute_tamper(self, ca_key, subject_key):
        der = make_cert(ca_key, subject_key, uid="alice")
        assert der.count(b"alice") == 2  # UID and CN
        forged = der.replace(b"alice", b"malle")
        assert x509.load_der_x509_certificate(forged).subject.get_attributes_for_oid(NameOID.USER_ID)
        with pytest.raises(CertificateError, match="invalid signature"):
            check_certificate(forged, ca_key.public_key, CLIENT)

    def test_tampered_signature_rejected(self, ca_key, subject_key):
        der = make_cert(ca_key, subject_key)
        with pytest.raises(CertificateError, match="invalid signature"):
            check_certificate(der[:-1] + bytes([der[-1] ^ 1]), ca_key.public_key, CLIENT)

    @pytest.mark.parametrize(
        "mangle",
        [lambda der: b"", lambda der: b"\x30\x03abc", lambda der: der[:40], lambda der: der[:-1], lambda der: der + b"\x00"],
        ids=["empty", "garbage", "truncated", "one-byte-short", "trailing-byte"],
    )
    def test_garbage_der_is_a_certificate_error(self, ca_key, subject_key, mangle):
        with pytest.raises(CertificateError, match="malformed certificate"):
            check_certificate(mangle(make_cert(ca_key, subject_key)), ca_key.public_key, CLIENT)

    def test_usage_enforced(self, ca_key, subject_key):
        der = make_cert(ca_key, subject_key)
        check_certificate(der, ca_key.public_key, CLIENT)
        with pytest.raises(CertificateError, match="extended key usage"):
            check_certificate(der, ca_key.public_key, SERVER)

    @pytest.mark.parametrize("usages", [(), (CLIENT, SERVER)], ids=["none", "both"])
    def test_only_a_single_matching_usage_passes(self, ca_key, subject_key, usages):
        uid = [x509.NameAttribute(NameOID.USER_ID, "alice")]
        der = build(ca_key, uid, subject_key.openssl_key.public_key(), usages)
        with pytest.raises(CertificateError):
            check_certificate(der, ca_key.public_key, CLIENT)

    def test_user_id_from_uid_attribute(self, ca_key, subject_key):
        der = make_cert(ca_key, subject_key, uid="u42", full_name="Someone Else")
        assert check_certificate(der, ca_key.public_key, CLIENT)[0] == "u42"

    def test_certificate_without_uid_is_rejected(self, ca_key, subject_key):
        subject = [x509.NameAttribute(NameOID.COMMON_NAME, "alice")]
        der = build(ca_key, subject, subject_key.openssl_key.public_key())
        with pytest.raises(CertificateError, match="malformed certificate"):
            check_certificate(der, ca_key.public_key, CLIENT)

    def test_non_rsa_key_is_rejected(self, ca_key):
        ec_key = ec.generate_private_key(ec.SECP256R1()).public_key()
        der = build(ca_key, [x509.NameAttribute(NameOID.USER_ID, "alice")], ec_key)
        with pytest.raises(CertificateError, match="RSA"):
            check_certificate(der, ca_key.public_key, CLIENT)

    def test_attribute_order_does_not_change_tbs(self, ca_key, subject_key):
        """The CA lays out the subject (UID, CN, then mail) and the dates
        itself: the same identity at the same serial is the same TBS."""
        a = make_cert(ca_key, subject_key, mail="m", full_name="F")
        b = make_cert(ca_key, subject_key, full_name="F", mail="m")
        tbs = x509.load_der_x509_certificate(a).tbs_certificate_bytes
        assert tbs == x509.load_der_x509_certificate(b).tbs_certificate_bytes
        oids = [attr.oid for attr in x509.load_der_x509_certificate(a).subject]
        assert oids == [NameOID.USER_ID, NameOID.COMMON_NAME, NameOID.EMAIL_ADDRESS]


class TestCsr:
    def test_round_trip(self, subject_key):
        csr = server_csr(subject_key, uid="ab" * 32)
        der = csr.public_bytes(Encoding.DER)
        restored = x509.load_der_x509_csr(der)
        assert restored == csr
        assert restored.is_signature_valid
        assert restored.subject.get_attributes_for_oid(NameOID.USER_ID)[0].value == "ab" * 32
