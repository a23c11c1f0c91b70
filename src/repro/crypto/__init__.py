"""Cryptographic primitives for the SeGShare reproduction.

Ciphers, signatures and key exchange are OpenSSL's, through the
``cryptography`` package.  The paper's PAE is one backend,
:class:`repro.crypto.pae.OpenSslGcmPae`: AES-128-GCM (AES-NI, as in the
paper); every sealed byte goes through it.  :mod:`repro.crypto.rsa` signs
with RSA PKCS#1 v1.5 and :mod:`repro.crypto.dh` agrees keys with X25519.
The key derivation and multiset hashes are written here on the Python
standard library (``hashlib``, ``hmac``).  The pure-Python AES-128-GCM and
EMSA-PKCS1-v1_5 references the tests hold OpenSSL byte-identical to live
in ``tests/support``, outside the enclave.
"""

from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.crypto.pae import (
    OpenSslGcmPae,
    Pae,
    default_pae,
)

__all__ = [
    "OpenSslGcmPae",
    "Pae",
    "default_pae",
    "derive_key",
    "hkdf_expand",
    "hkdf_extract",
]
