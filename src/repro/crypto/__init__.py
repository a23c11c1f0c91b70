"""From-scratch cryptographic primitives for the SeGShare reproduction.

Everything here is built on the Python standard library only
(``hashlib``, ``hmac``, ``secrets``).  Two authenticated-encryption
backends implement the paper's PAE abstraction:

* :class:`repro.crypto.pae.AesGcmPae` — pure-Python AES-128-GCM, validated
  against NIST test vectors.  Faithful to the paper but slow; use it for
  small data and fidelity tests.
* :class:`repro.crypto.pae.HmacStreamPae` — encrypt-then-MAC AEAD built on a
  SHA-256 counter-mode keystream and HMAC-SHA256.  Fast enough for the
  multi-megabyte benchmark workloads; the default backend.
"""

from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.crypto.mset_hash import MSetXorHash
from repro.crypto.pae import (
    AesGcmPae,
    HmacStreamPae,
    Pae,
    default_pae,
)

__all__ = [
    "AesGcmPae",
    "HmacStreamPae",
    "MSetXorHash",
    "Pae",
    "default_pae",
    "derive_key",
    "hkdf_expand",
    "hkdf_extract",
]
