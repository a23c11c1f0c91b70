"""The untrusted SeGShare server host and deployment helpers (Fig. 1).

The untrusted side owns the transport listener, the untrusted TLS
interface (record forwarding via switchless ECALLs), the untrusted
certification component (relaying quotes and CSRs between the CA and the
enclave), and the raw object stores.  None of it sees keys or plaintext.

:func:`deploy` wires a complete world — network environment, CA,
attestation service, platform, enclave, certificate provisioning — and
returns a :class:`Deployment` from which test code and examples mint
users and client connections.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.client import SeGShareClient
from repro.core.enclave_app import SeGShareEnclave, SeGShareOptions
from repro.crypto import rsa
from repro.errors import AttestationError, RetryPolicy
from repro.netsim import Endpoint, Listener, NetworkEnv, azure_wan_env
from repro.pki import CertificateAuthority, Certificate
from repro.pki.certificate import CertificateSigningRequest
from repro.sgx import AttestationService, QuotingEnclave, SgxPlatform, SwitchlessQueue
from repro.storage.stores import StoreSet
from repro.tls import TlsClient
from repro.tls.channel import UntrustedTlsInterface
from repro.tls.handshake import ClientIdentity
from repro.tls.session import CryptoCostProfile


class SeGShareServer:
    """One SeGShare server instance: platform + enclave + untrusted host."""

    def __init__(
        self,
        env: NetworkEnv,
        ca_public_key: rsa.RsaPublicKey,
        stores: StoreSet | None = None,
        options: SeGShareOptions | None = None,
        attestation_service: AttestationService | None = None,
        platform: SgxPlatform | None = None,
    ) -> None:
        self.env = env
        self.stores = stores or StoreSet.in_memory()
        self.platform = platform or SgxPlatform(clock=env.clock)
        if getattr(self.platform, "quoting_enclave", None) is None:
            self.platform.quoting_enclave = QuotingEnclave(self.platform)
        self._load(ca_public_key, options, attestation_service)
        # The server's worker pool: with a ParallelClock, drivers dispatch
        # requests through it onto concurrent tracks (benchmarks and the
        # concurrency tests); with a serial clock it degrades to the
        # synchronous switchless model.
        self.switchless = SwitchlessQueue(
            env.clock,
            self.platform.costs,
            workers=self.enclave._options.switchless_workers,
        )
        #: Set by a cluster front door (repro.cluster) when this server is
        #: admitted; lets ``stats()`` surface routing/failover counters.
        self.cluster = None

    def endpoint(self) -> Endpoint:
        """Where clients connect."""
        return Endpoint(self.listener)

    def stats(self) -> dict:
        """Cache, rollback-guard, engine, and EPC counters from the enclave."""
        stats = self.handle.call("runtime_stats")
        # Shard routing happens in the untrusted provider layer, so its
        # counters live on the store object, not inside the enclave.
        router = self.stores.router
        if router is not None and hasattr(router, "stats"):
            stats["shards"] = router.stats()
        # The switchless pool is host-side machinery too.
        sw = self.switchless.stats
        stats["switchless"] = {
            "submitted": sw.submitted,
            "fast": sw.fast,
            "fallback": sw.fallback,
            "dispatched": sw.dispatched,
            "worker_wait_s": round(sw.worker_wait_s, 9),
            "spins": sw.spins,
            "parks": sw.parks,
            "wakes": sw.wakes,
            "queued": sw.queued,
        }
        # Likewise cluster routing and failover: untrusted front-door
        # machinery, so its counters live outside the enclave.
        if self.cluster is not None:
            stats["cluster"] = self.cluster.stats()
        return stats

    def authz_reconcile(self) -> dict:
        """Flush the authz backend's deferred re-wrap queue (see
        :meth:`SeGShareEnclave.authz_reconcile`); an operator-scheduled
        maintenance pass, not a request-path operation."""
        return self.handle.call("authz_reconcile")

    # -- untrusted certification component ---------------------------------------------

    def certification_request(self) -> tuple[bytes, bytes]:
        """Produce (CSR, quote-over-CSR) for the CA's attestation check."""
        csr_bytes = self.handle.call("create_csr")
        quote = self.platform.quoting_enclave.quote(
            self.enclave, report_data=hashlib.sha256(csr_bytes).digest()
        )
        return csr_bytes, quote.serialize()

    def install_certificate(self, cert_bytes: bytes) -> None:
        self.handle.call("install_certificate", cert_bytes)

    def restart_enclave(self) -> None:
        """Destroy and re-create the enclave on the same platform.

        Volatile state is lost; sealed state (root key, TLS identity) is
        recovered — the persistence path the sealing design exists for.
        """
        enclave = self.enclave
        wiring = enclave._ca_public_key, enclave._options, enclave._attestation_service
        self.handle.destroy()
        self._load(*wiring)

    def _load(
        self,
        ca_public_key: rsa.RsaPublicKey,
        options: SeGShareOptions | None,
        attestation_service: AttestationService | None,
    ) -> None:
        """Load a new enclave on our platform and wire the host side to it."""
        self.enclave = SeGShareEnclave(
            ca_public_key,
            self.stores,
            options=options,
            attestation_service=attestation_service,
        )
        self.handle = self.platform.load(self.enclave)
        # The paper uses switchless calls for all network and file traffic.
        self.handle.use_switchless(True)
        self.untrusted_tls = UntrustedTlsInterface(
            new_session=lambda: self.handle.call("new_session"),
            forward=lambda session_id, raw: self.handle.call("on_record", session_id, raw),
            close_session=lambda session_id: self.handle.call("close_session", session_id),
        )
        self.listener = Listener(self.env.link, self.untrusted_tls.attach)


def provision_certificate(
    ca: CertificateAuthority,
    service: AttestationService,
    server: SeGShareServer,
    expected_measurement: bytes,
) -> Certificate:
    """The setup phase of Section IV-A, CA side.

    Attests the enclave (quote must carry the expected measurement and
    bind the CSR), signs the CSR, and installs the certificate.
    """
    from repro.sgx.attestation import Quote

    csr_bytes, quote_bytes = server.certification_request()
    quote = Quote.deserialize(quote_bytes)
    service.verify(quote, expected_measurement=expected_measurement)
    if quote.report_data != hashlib.sha256(csr_bytes).digest():
        raise AttestationError("quote does not bind the CSR")
    csr = CertificateSigningRequest.deserialize(csr_bytes)
    cert = ca.sign_csr(csr)
    server.install_certificate(cert.serialize())
    return cert


@dataclass
class Deployment:
    """A fully wired SeGShare world for tests, examples, and benchmarks."""

    env: NetworkEnv
    ca: CertificateAuthority
    attestation: AttestationService
    server: SeGShareServer
    server_certificate: Certificate
    client_cost_profile: CryptoCostProfile = field(
        # The paper's client VM (2 vCPU E5-2673 v4) is slower than the
        # server's E-2176G; ~1.8 GB/s single-core AEAD.
        default_factory=lambda: CryptoCostProfile(aead_bytes_per_second=1.8e9)
    )
    _user_keys: dict[str, rsa.RsaPrivateKey] = field(default_factory=dict)

    def user_identity(
        self, user_id: str, key: rsa.RsaPrivateKey | None = None, key_bits: int = 1024
    ) -> ClientIdentity:
        """Issue (or reuse) a client certificate for ``user_id``.

        Pass ``key`` to reuse an existing RSA key (pure-Python keygen is
        slow; tests share one key across users — certificates still bind
        distinct identities).
        """
        if key is None:
            key = self._user_keys.get(user_id) or rsa.generate_keypair(key_bits)
        self._user_keys[user_id] = key
        cert = self.ca.issue_client_certificate(user_id, key.public_key)
        return ClientIdentity(certificate=cert, private_key=key)

    def connect(
        self,
        identity: ClientIdentity,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> SeGShareClient:
        """Open a connection + TLS handshake for an issued identity.

        ``retry`` (optional) makes the channel and client retry transient
        network/storage faults with capped, seeded exponential backoff.
        """
        conn = self.server.endpoint().connect()
        tls = TlsClient(
            conn,
            identity,
            self.ca.public_key,
            clock=self.env.clock,
            costs=self.client_cost_profile,
            retry=retry,
            retry_seed=retry_seed,
        )
        tls.handshake()
        return SeGShareClient(tls, retry=retry, retry_seed=retry_seed)

    def new_user(
        self, user_id: str, key: rsa.RsaPrivateKey | None = None, key_bits: int = 1024
    ) -> SeGShareClient:
        """Mint a user and connect them in one step."""
        return self.connect(self.user_identity(user_id, key=key, key_bits=key_bits))


def deploy(
    env: NetworkEnv | None = None,
    options: SeGShareOptions | None = None,
    ca: CertificateAuthority | None = None,
    stores: StoreSet | None = None,
) -> Deployment:
    """Stand up a complete SeGShare deployment (the whole setup phase)."""
    env = env or azure_wan_env()
    ca = ca or CertificateAuthority()
    service = AttestationService()
    server = SeGShareServer(
        env,
        ca.public_key,
        stores=stores,
        options=options,
        attestation_service=service,
    )
    service.register_platform(
        server.platform.platform_id,
        server.platform.quoting_enclave.attestation_public_key,
    )
    cert = provision_certificate(
        ca, service, server, expected_measurement=server.enclave.measurement()
    )
    return Deployment(
        env=env, ca=ca, attestation=service, server=server, server_certificate=cert
    )
