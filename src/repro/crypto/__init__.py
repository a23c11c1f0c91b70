"""Cryptographic primitives for the SeGShare reproduction.

The key derivation, multiset hashes, RSA, DH and the reference AES are
written here on the Python standard library (``hashlib``, ``hmac``,
``secrets``).  Two AES-128-GCM backends implement the paper's PAE
abstraction and produce identical bytes:

* :class:`repro.crypto.pae.OpenSslGcmPae` — AES-128-GCM from OpenSSL
  through the ``cryptography`` package (AES-NI, as in the paper).  The
  default backend: every sealed byte goes through it.
* :class:`repro.crypto.pae.AesGcmPae` — pure-Python AES-128-GCM, validated
  against NIST test vectors.  Slow; the differential reference for tests
  and the throughput figure.
"""

from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.crypto.mset_hash import MSetXorHash
from repro.crypto.pae import (
    AesGcmPae,
    OpenSslGcmPae,
    Pae,
    default_pae,
)

__all__ = [
    "AesGcmPae",
    "MSetXorHash",
    "OpenSslGcmPae",
    "Pae",
    "default_pae",
    "derive_key",
    "hkdf_expand",
    "hkdf_extract",
]
