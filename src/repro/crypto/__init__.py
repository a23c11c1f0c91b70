"""Cryptographic primitives for the SeGShare reproduction.

The key derivation, multiset hashes, RSA and DH are written here on the
Python standard library (``hashlib``, ``hmac``, ``secrets``).  The paper's
PAE is one backend, :class:`repro.crypto.pae.OpenSslGcmPae`: AES-128-GCM
from OpenSSL through the ``cryptography`` package (AES-NI, as in the
paper).  Every sealed byte goes through it.  The pure-Python AES-128-GCM
the tests hold it byte-identical to lives in ``tests/support``, outside
the enclave.
"""

from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.crypto.mset_hash import MSetXorHash
from repro.crypto.pae import (
    OpenSslGcmPae,
    Pae,
    default_pae,
)

__all__ = [
    "MSetXorHash",
    "OpenSslGcmPae",
    "Pae",
    "default_pae",
    "derive_key",
    "hkdf_expand",
    "hkdf_extract",
]
