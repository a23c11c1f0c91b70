"""The authorization-backend registry (paper Section VII / ROADMAP item 7).

``enclave_acl`` is the paper's design — enclave-checked ACLs, O(1)
metadata per membership change (:class:`repro.core.access_control.AccessControl`);
``ibbe`` extends it into the opposing cryptographic design —
per-receiver envelopes, O(|group|) re-key plus lazy content
re-encryption on revocation.  ``benchmarks/bench_revocation.py`` runs
them head to head; docs/ACCESS_CONTROL.md has the cost model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.access_control import AccessControl
from repro.core.authz.ibbe import IbbeEnvelopeBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.file_manager import TrustedFileManager
    from repro.sgx.enclave import Enclave

#: Option value (``SeGShareOptions.authz_backend``) -> implementation.
AUTHZ_BACKENDS: dict[str, type[AccessControl]] = {
    AccessControl.name: AccessControl,
    IbbeEnvelopeBackend.name: IbbeEnvelopeBackend,
}


def build_backend(
    name: str,
    manager: "TrustedFileManager",
    enclave: "Enclave",
) -> AccessControl:
    """Instantiate the configured authorization backend."""
    try:
        backend_cls = AUTHZ_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown authz backend {name!r}; known: {sorted(AUTHZ_BACKENDS)}"
        ) from None
    return backend_cls(manager, enclave)


__all__ = ["AUTHZ_BACKENDS", "build_backend"]
