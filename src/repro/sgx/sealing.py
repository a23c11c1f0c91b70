"""Data sealing (Section II-A of the paper).

Enclaves are stateless across restarts; sealing lets them persist secrets
in untrusted storage.  The sealing key is derived from the platform's
fuse key plus either the enclave measurement (policy ``MRENCLAVE`` — only
the *identical* enclave unseals) or the signer identity (policy
``MRSIGNER`` — any enclave from the same vendor on the same CPU unseals).
SeGShare seals its root key SK_r and its TLS key pair under MRSIGNER so
that an upgraded enclave build can still open them, while the tests also
exercise MRENCLAVE to show the stricter policy.

A sealed blob is PAE ciphertext whose associated data binds the policy,
so truncating or re-labelling a blob fails authentication.
"""

from __future__ import annotations

import enum

from repro.crypto import default_pae, derive_key
from repro.errors import IntegrityError, SealingError
from repro.sgx.enclave import Enclave
from repro.util.serialization import Reader, Writer

_MAGIC = b"SGXSEAL1"


class SealPolicy(enum.Enum):
    """Which enclave identity the sealing key is bound to."""

    MRENCLAVE = "mrenclave"
    MRSIGNER = "mrsigner"


def _sealing_key(enclave: Enclave, policy: SealPolicy) -> bytes:
    platform = enclave.platform
    if policy is SealPolicy.MRENCLAVE:
        identity = enclave.measurement()
    else:
        identity = enclave.signer_id()
    return derive_key(
        platform.fuse_key,
        f"sgx/seal/{policy.value}",
        identity,
        length=16,
    )


def seal(enclave: Enclave, data: bytes, policy: SealPolicy = SealPolicy.MRSIGNER) -> bytes:
    """Seal ``data`` for later unsealing by an enclave matching ``policy``."""
    key = _sealing_key(enclave, policy)
    enclave.charge(
        enclave.platform.costs.seal_fixed + enclave.platform.costs.aead_time(len(data)),
        account="sealing",
    )
    blob = default_pae().encrypt(key, data, aad=_MAGIC + policy.value.encode())
    return Writer().raw(_MAGIC).str(policy.value).bytes(blob).take()


def unseal(enclave: Enclave, sealed: bytes) -> bytes:
    """Unseal a blob; raises :class:`SealingError` for the wrong enclave/CPU."""
    try:
        r = Reader(sealed)
        magic = r.raw(len(_MAGIC))
        if magic != _MAGIC:
            raise SealingError("not a sealed blob")
        policy = SealPolicy(r.str())
        blob = r.bytes()
        r.expect_end()
    except SealingError:
        raise
    except Exception as exc:
        raise SealingError(f"malformed sealed blob: {exc}") from exc

    key = _sealing_key(enclave, policy)
    enclave.charge(
        enclave.platform.costs.seal_fixed + enclave.platform.costs.aead_time(len(blob)),
        account="sealing",
    )
    try:
        return default_pae().decrypt(key, blob, aad=_MAGIC + policy.value.encode())
    except IntegrityError as exc:
        raise SealingError(
            "unsealing failed: blob was sealed by a different enclave, on a "
            "different platform, or has been tampered with"
        ) from exc
