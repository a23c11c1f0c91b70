"""X.509 material for tests: enclave-style CSRs and certificates no CA issues.

``server_csr`` is the PKCS#10 request an enclave sends, for any key, UID
and requested usages.  ``with_public_key`` rebuilds a certificate around a
subject key OpenSSL refuses to load (so ``CertificateBuilder`` cannot make
it) and has the CA sign the new ``TBSCertificate``: the certificate a CA
that accepted such a key would have issued.
"""

from __future__ import annotations

from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from repro.crypto import rsa
from repro.pki import CertificateAuthority

# AlgorithmIdentifier SEQUENCEs: rsaEncryption and sha256WithRSAEncryption, NULL parameters.
_RSA_ENCRYPTION = bytes.fromhex("300d06092a864886f70d0101010500")
_SHA256_WITH_RSA = bytes.fromhex("300d06092a864886f70d01010b0500")


def server_csr(
    key: rsa.RsaPrivateKey,
    uid: str = "server",
    usages: tuple[x509.ObjectIdentifier, ...] = (ExtendedKeyUsageOID.SERVER_AUTH,),
) -> x509.CertificateSigningRequest:
    builder = x509.CertificateSigningRequestBuilder().subject_name(
        x509.Name([x509.NameAttribute(NameOID.USER_ID, uid)])
    )
    if usages:
        builder = builder.add_extension(x509.ExtendedKeyUsage(list(usages)), critical=False)
    return builder.sign(key.openssl_key, hashes.SHA256())


def server_certificate(ca: CertificateAuthority, key: rsa.RsaPrivateKey, uid: str = "server") -> bytes:
    """The DER certificate ``ca`` issues for an enclave's CSR over ``key``."""
    return ca.sign_csr(server_csr(key, uid)).public_bytes(Encoding.DER)


def _der(tag: int, body: bytes) -> bytes:
    if len(body) < 0x80:
        return bytes([tag, len(body)]) + body
    size = len(body).to_bytes((len(body).bit_length() + 7) // 8, "big")
    return bytes([tag, 0x80 | len(size)]) + size + body


def _der_int(value: int) -> bytes:
    return _der(0x02, value.to_bytes(value.bit_length() // 8 + 1, "big"))


def _body(sequence: bytes) -> bytes:
    """The contents of a DER SEQUENCE."""
    first = sequence[1]
    return sequence[2 + (first & 0x7F if first & 0x80 else 0) :]


def with_public_key(ca: CertificateAuthority, cert: x509.Certificate, key: rsa.RsaPublicKey) -> bytes:
    """DER of ``cert`` with its subject key replaced by ``key``, signed by ``ca``."""
    old = cert.public_key().public_bytes(Encoding.DER, PublicFormat.SubjectPublicKeyInfo)
    new = _der(0x30, _RSA_ENCRYPTION + _der(0x03, b"\x00" + _der(0x30, _der_int(key.n) + _der_int(key.e))))
    body = _body(cert.tbs_certificate_bytes)
    assert body.count(old) == 1
    tbs = _der(0x30, body.replace(old, new))
    signature = ca.sign_message(tbs)
    return _der(0x30, tbs + _SHA256_WITH_RSA + _der(0x03, b"\x00" + signature))
