"""The certificate authority of the file system owner.

The paper's attacker model trusts the CA: it validates user identities,
provisions client certificates, performs remote attestation of SeGShare
enclaves, and issues their server certificates.  The CA's public key is
hard-coded into the enclave (here: passed at enclave construction and
baked into the measurement), which is what lets users skip their own
remote attestation.
"""

from __future__ import annotations

import itertools
import threading

from repro.crypto import rsa
from repro.errors import CertificateError
from repro.pki.certificate import (
    Certificate,
    CertificateSigningRequest,
    CertificateUsage,
)


class CertificateAuthority:
    """Issues and validates certificates for users and enclaves.

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
        self._revoked: set[int] = set()
        self._issued: dict[int, Certificate] = {}

    @property
    def public_key(self) -> rsa.RsaPublicKey:
        return self._key.public_key

    def export_key(self) -> bytes:
        """Serialize the CA private key (for persistent demo deployments
        only — a real CA never exports its key)."""
        return self._key.serialize()

    def _issue(
        self,
        subject: str,
        usage: CertificateUsage,
        public_key: rsa.RsaPublicKey,
        attributes: dict[str, str],
    ) -> Certificate:
        with self._lock:
            serial = next(self._serials)
        unsigned = Certificate(
            serial=serial,
            subject=subject,
            issuer=self.name,
            usage=usage,
            public_key=public_key,
            attributes=dict(attributes),
            signature=b"",
        )
        signature = rsa.sign(self._key, unsigned.tbs_bytes())
        cert = Certificate(
            serial=serial,
            subject=subject,
            issuer=self.name,
            usage=usage,
            public_key=public_key,
            attributes=dict(attributes),
            signature=signature,
        )
        with self._lock:
            self._issued[serial] = cert
        return cert

    def issue_client_certificate(
        self,
        user_id: str,
        public_key: rsa.RsaPublicKey,
        mail: str | None = None,
        full_name: str | None = None,
    ) -> Certificate:
        """Issue a client certificate carrying identity attributes.

        The CA is trusted to have validated the identity out of band.
        """
        attributes = {"uid": user_id}
        if mail:
            attributes["mail"] = mail
        if full_name:
            attributes["name"] = full_name
        return self._issue(user_id, CertificateUsage.CLIENT, public_key, attributes)

    def sign_csr(self, csr: CertificateSigningRequest) -> Certificate:
        """Sign a server CSR coming from an attested enclave.

        Callers must attest the enclave *before* handing its CSR to this
        method; :class:`repro.core.server.CertificationService` does so.
        """
        if csr.usage is not CertificateUsage.SERVER:
            raise CertificateError("CSR must request a server certificate")
        return self._issue(csr.subject, CertificateUsage.SERVER, csr.public_key, csr.attributes)

    def sign_message(self, message: bytes) -> bytes:
        """Sign an administrative message (e.g. the §V-G reset authorization).

        Certificates are signed over structured TBS bytes with distinct
        layouts, so administrative messages cannot collide with them.
        """
        return rsa.sign(self._key, message)

    def revoke(self, serial: int) -> None:
        """Mark a certificate revoked (e.g. a compromised client key)."""
        with self._lock:
            if serial not in self._issued:
                raise CertificateError(f"unknown serial {serial}")
            self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        with self._lock:
            return serial in self._revoked

    def validate(self, cert: Certificate, usage: CertificateUsage) -> None:
        """Full validation: signature, usage, issuer, revocation."""
        if cert.issuer != self.name:
            raise CertificateError(f"certificate issued by {cert.issuer!r}, not {self.name!r}")
        cert.verify(self.public_key)
        cert.require_usage(usage)
        if self.is_revoked(cert.serial):
            raise CertificateError(f"certificate serial {cert.serial} is revoked")
