"""Public-key infrastructure: the file system owner's CA.

The X.509 machinery of the paper's setup phase (Section IV-A): the
certificate authority issues client certificates carrying identity
information and signs the PKCS#10 requests of attested enclaves.
Certificates and CSRs are ``cryptography.x509`` objects, DER on the wire.
"""

from repro.pki.ca import CertificateAuthority

__all__ = ["CertificateAuthority"]
