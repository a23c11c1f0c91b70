"""The certificate authority of the file system owner.

The paper's attacker model trusts the CA: it validates user identities,
provisions client certificates, performs remote attestation of SeGShare
enclaves, and issues their server certificates.  The CA's public key is
hard-coded into the enclave (here: passed at enclave construction and
baked into the measurement), which is what lets users skip their own
remote attestation.

Certificates are X.509 and CSRs PKCS#10, built and signed by OpenSSL
through ``cryptography``.  The user id is the subject's ``UID``; what a
certificate may authenticate is its extended key usage, ``clientAuth`` or
``serverAuth``.  Serials come from the CA's counter and the validity
dates are fixed, never the wall clock: the enclave has no trusted time
and checks no dates, and fixed fields keep a certificate's DER length
independent of its key and of when it was issued.
"""

from __future__ import annotations

import datetime
import itertools
import threading

from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import rsa as openssl_rsa
from cryptography.hazmat.primitives.asymmetric.types import CertificatePublicKeyTypes
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from repro.crypto import rsa
from repro.errors import CertificateError

NOT_BEFORE = datetime.datetime(2020, 1, 1, tzinfo=datetime.timezone.utc)
NOT_AFTER = datetime.datetime(2049, 12, 31, 23, 59, 59, tzinfo=datetime.timezone.utc)


class CertificateAuthority:
    """Issues X.509 certificates to users and to attested enclaves.

    ``key_bits`` defaults to 1024 rather than 2048: the smallest size
    OpenSSL generates, and the size of every other key in the deployment;
    the signature scheme is identical.
    """

    def __init__(
        self,
        name: str = "segshare-ca",
        key_bits: int = 1024,
        key: rsa.RsaPrivateKey | None = None,
    ) -> None:
        self.name = name
        self._key = key or rsa.generate_keypair(key_bits)
        self._serials = itertools.count(1)
        self._lock = threading.Lock()

    @property
    def public_key(self) -> rsa.RsaPublicKey:
        return self._key.public_key

    def export_key(self) -> bytes:
        """Serialize the CA private key (for persistent demo deployments
        only — a real CA never exports its key)."""
        return self._key.serialize()

    def _issue(
        self,
        subject: x509.Name,
        usage: x509.ObjectIdentifier,
        public_key: CertificatePublicKeyTypes,
    ) -> x509.Certificate:
        with self._lock:
            serial = next(self._serials)
        builder = (
            x509.CertificateBuilder()
            .subject_name(subject)
            .issuer_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, self.name)]))
            .public_key(public_key)
            .serial_number(serial)
            .not_valid_before(NOT_BEFORE)
            .not_valid_after(NOT_AFTER)
            .add_extension(x509.ExtendedKeyUsage([usage]), critical=False)
        )
        return builder.sign(self._key.openssl_key, hashes.SHA256())

    def issue_client_certificate(
        self,
        user_id: str,
        public_key: rsa.RsaPublicKey,
        mail: str | None = None,
        full_name: str | None = None,
    ) -> x509.Certificate:
        """Issue a ``clientAuth`` certificate whose subject carries the user
        id (``UID``), a common name and, when given, the mail address.

        The CA is trusted to have validated the identity out of band.
        """
        names = [
            x509.NameAttribute(NameOID.USER_ID, user_id),
            x509.NameAttribute(NameOID.COMMON_NAME, full_name or user_id),
        ]
        if mail:
            names.append(x509.NameAttribute(NameOID.EMAIL_ADDRESS, mail))
        try:
            key = openssl_rsa.RSAPublicNumbers(public_key.e, public_key.n).public_key()
        except ValueError as exc:
            raise CertificateError(f"OpenSSL refuses the key of {user_id!r}") from exc
        return self._issue(x509.Name(names), ExtendedKeyUsageOID.CLIENT_AUTH, key)

    def sign_csr(self, csr: x509.CertificateSigningRequest) -> x509.Certificate:
        """Sign a PKCS#10 server CSR coming from an attested enclave.

        The CSR must carry a valid self-signature and request exactly the
        ``serverAuth`` usage.  Callers must attest the enclave *before*
        handing its CSR to this method; :func:`repro.core.server.provision_certificate`
        does so.
        """
        if not csr.is_signature_valid:
            raise CertificateError("CSR self-signature is invalid")
        try:
            requested = list(csr.extensions.get_extension_for_class(x509.ExtendedKeyUsage).value)
        except x509.ExtensionNotFound:
            requested = []
        if requested != [ExtendedKeyUsageOID.SERVER_AUTH]:
            raise CertificateError("CSR must request a server certificate")
        return self._issue(csr.subject, ExtendedKeyUsageOID.SERVER_AUTH, csr.public_key())

    def sign_message(self, message: bytes) -> bytes:
        """Sign an administrative message (e.g. the §V-G reset authorization).

        A certificate's signature covers a DER ``TBSCertificate``, an ASN.1
        SEQUENCE, so administrative messages with their own context
        prefixes cannot collide with one.
        """
        return rsa.sign(self._key, message)
