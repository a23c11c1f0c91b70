"""The SeGShare enclave (paper Fig. 1, trusted side).

Everything inside the dashed box of Fig. 1 lives in this
:class:`repro.sgx.Enclave` subclass: the trusted TLS interface, the
request handler, the access control component, and the trusted file
manager.  The hard-coded CA public key is part of the enclave's
measurement, so a CA that attests the measurement knows the enclave was
built for it.

The ECALL surface is deliberately tiny — certification (CSR/certificate
installation), TLS session management, record forwarding, replication,
and backup reset — mirroring the paper's "well-defined interface"
argument.  :meth:`tcb_report` reproduces the enclave-LoC accounting
(the paper's 8441 lines).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.serialization import Encoding
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from repro.core.access_control import AccessControl
from repro.core.authz import AUTHZ_BACKENDS, build_backend
from repro.core.audit import AuditLog, export_message_bytes
from repro.core.cache import MetadataCache
from repro.core.coherence import CoherenceManager
from repro.core.file_manager import TrustedFileManager
from repro.core.journal import EpochRecord, WriteAheadJournal
from repro.core.locks import LockManager
from repro.core.request_handler import RequestHandler, UploadSink, response_for
from repro.core.requests import Op, Request, Response
from repro.core.rollback import COUNTER_ID, FileSystemAnchor, FlatStoreGuard, RollbackGuard, stored_anchor
from repro.core.rotation import (
    RotationStats,
    replay_state,
    rotate_message_bytes,
    snapshot_state,
    wipe_stores,
)
from repro.crypto import default_pae, derive_key, rsa
from repro.errors import (
    AccessDenied,
    AttestationError,
    BackupError,
    CertificateError,
    EnclaveCrashed,
    EnclaveError,
    ReplicationError,
    ReproError,
    RequestError,
)
from repro.netsim.clock import ParallelClock
from repro.sgx import attestation as att
from repro.sgx.counters import MonotonicCounter, RoteCounterService
from repro.sgx.enclave import Enclave, ecall
from repro.sgx.sealing import seal, unseal
from repro.storage.stores import StoreSet
from repro.store.engine import StorageEngine
from repro.tls.channel import StreamingResponse, TrustedTlsInterface
from repro.tls.handshake import ServerIdentity, check_certificate
from repro.tls.session import CryptoCostProfile
from repro.util.serialization import Writer
from repro.webdav.http import HttpRequest, HttpResponse
from repro.webdav.server_adapter import WebDavAdapter

#: Prefix selecting the WebDAV protocol on the TLS channel (Section VI).
_WEBDAV_MARKER = b"WEBDAV\x00"

# Sealed blobs only unseal on the platform that sealed them, so every
# platform keeps its own copies (replicas over a shared backend would
# otherwise trip over each other's blobs).
_SEALED_ROOT_KEY = "\x00segshare:sealed-root-key:{platform}"
_SEALED_TLS_KEY = "\x00segshare:sealed-tls-key:{platform}"
_SERVER_CERT = "\x00segshare:server-cert:{platform}"

_RESET_CONTEXT = b"segshare-reset\x00"


@dataclass(frozen=True)
class SeGShareOptions:
    """Build-time configuration of a SeGShare enclave.

    ``rollback`` is one of ``"off"``, ``"individual"`` (Section V-D), or
    ``"whole_fs"`` (Section V-E, adds a monotonic counter).
    ``counter_kind`` picks the counter backing whole-FS protection:
    ``"sgx"`` (slow, wearing) or ``"rote"`` (replicated, fast).
    """

    hide_paths: bool = False
    enable_dedup: bool = False
    rollback: str = "off"
    counter_kind: str = "sgx"
    rollback_buckets: int = 64
    audit: bool = False
    quota_bytes: int | None = None
    #: Accepted only as True: benchmarks/e2e/workloads.py still passes it.
    journal: bool = True
    #: Enclave-resident metadata cache capacity (repro/core/cache.py);
    #: ``None`` disables the cache entirely.  Occupancy is charged against
    #: the platform's EPC model.
    metadata_cache_bytes: int | None = None
    #: Size of the switchless worker pool — the bound on concurrently
    #: executing requests when the platform clock is a ``ParallelClock``
    #: (mirrors the SDK's ``uworkers``/``tworkers`` setting).
    switchless_workers: int = 4
    #: Authorization backend (repro/core/authz): ``"enclave_acl"`` is the
    #: paper's design — enclave-checked ACLs, O(1)-metadata revocation;
    #: ``"ibbe"`` is the opposing cryptographic design — per-receiver
    #: envelopes, O(group) re-key + lazy re-encryption on revocation.
    authz_backend: str = "enclave_acl"

    def __post_init__(self) -> None:
        if not self.journal:
            raise ValueError("the journaled transaction is the only write path")
        if self.rollback not in ("off", "individual", "whole_fs"):
            raise ValueError(f"bad rollback mode {self.rollback!r}")
        if self.counter_kind not in ("sgx", "rote"):
            raise ValueError(f"bad counter kind {self.counter_kind!r}")
        if self.rollback_buckets < 1:
            raise ValueError("rollback_buckets must be at least 1")
        if self.metadata_cache_bytes is not None and self.metadata_cache_bytes <= 0:
            raise ValueError("metadata_cache_bytes must be positive or None")
        if self.switchless_workers < 1:
            raise ValueError("switchless_workers must be at least 1")
        if self.authz_backend not in AUTHZ_BACKENDS:
            raise ValueError(
                f"bad authz backend {self.authz_backend!r}; "
                f"known: {sorted(AUTHZ_BACKENDS)}"
            )


class SeGShareEnclave(Enclave):
    """The trusted part of a SeGShare server."""

    #: Modules running inside the enclave — the trusted computing base.
    TCB_MODULES = (
        "repro.core.access_control",
        "repro.core.acl",
        "repro.core.audit",
        "repro.core.authz",
        "repro.core.authz.ibbe",
        "repro.core.cache",
        "repro.core.coherence",
        "repro.core.dedup",
        "repro.core.file_manager",
        "repro.core.hiding",
        "repro.core.journal",
        "repro.core.locks",
        "repro.core.model",
        "repro.core.request_handler",
        "repro.core.requests",
        "repro.core.rollback",
        "repro.core.rotation",
        "repro.crypto.dh",
        "repro.crypto.kdf",
        "repro.crypto.mset_hash",
        "repro.crypto.pae",
        "repro.crypto.rsa",
        "repro.fsmodel.directory",
        "repro.fsmodel.paths",
        "repro.sgx.protected_fs",
        "repro.sgx.sealing",
        "repro.store.engine",
        "repro.tls.channel",
        "repro.tls.handshake",
        "repro.tls.records",
        "repro.tls.session",
        "repro.util.serialization",
        "repro.webdav.http",
        "repro.webdav.server_adapter",
    )

    #: Shrink-only budget for the summed LoC of ``TCB_MODULES`` (the paper's
    #: enclave is 8441).  Set to the measured total; a change that grows the
    #: enclave past it fails tests/core/test_enclave_app.py — lower it when
    #: the total drops, never raise it to make room.  (Three rises so far,
    #: each named by its issue beforehand and recorded in EXPERIMENTS.md
    #: §E7: 8518 → 8556 for the O(request) bookkeeping of docs/PERF.md §8,
    #: 8377 → 8410 for §9's download framing and group undo entries, and
    #: 7729 → 7759 for §20's chunk groups.)
    #: tests/analysis/test_src_tree.py::test_trusted_code_is_reached keeps
    #: capability that only tests run from growing it back, and
    #: test_required_collaborators_are_never_optional the unclocked /
    #: un-enclaved construction mode whose removal brought 8410 → 8346,
    #: and the journal-less engine whose removal brought 8346 → 8316.
    #: docs/PERF.md §11 paid for its per-span index seal by deleting
    #: test-only path, key-fingerprint and multiset routines: 8316 → 8297.
    #: §12's per-hName dedup records left the index code smaller: 8297 → 8293.
    #: One content layout (every file a pointer to a streamed object; the
    #: inline layout and its whole-upload buffer gone): 8293 → 8273.
    #: AES-128-GCM on OpenSSL replaced the SHAKE-256/HMAC stream PAE
    #: (docs/PERF.md §14): 8273 → 8249.
    #: Protected FS chunk tags replaced the Merkle tree, and the pure-Python
    #: AES-GCM reference moved to tests/support (docs/PERF.md §15): 8249 → 7896.
    #: RSA and the key exchange moved onto OpenSSL (X25519 for the MODP
    #: group; no prime search), docs/PERF.md §16: 7896 → 7768.
    #: A released object is reclaimed after commit, not through the undo
    #: journal, whose moved pre-images fold into copies (docs/PERF.md §17):
    #: 7768 → 7768.
    #: One commit path, every transaction an epoch member and one abort
    #: routine (docs/PERF.md §18): 7768 → 7730.
    #: Sparse guard nodes, the codec's lines paid for inside
    #: ``crypto.mset_hash`` (docs/PERF.md §19): 7730 → 7729.
    #: Protected FS chunks sealed and opened in groups, through PAE batch
    #: entries and store ``put_many``/``get_many`` (docs/PERF.md §20; the
    #: sealed TLS key's fixed-width ``d`` saved a line): 7729 → 7759, a
    #: rise of 30 named beforehand (at most 30).
    #: A small protected file is one sealed blob, the metadata node carrying
    #: chunk 0, and the file-key PRK is derived once per mount (docs/PERF.md
    #: §21; the chunk-key and AAD helpers folded to pay): 7759 → 7768, a rise
    #: of 9 named beforehand (at most 10).
    #: One codec API, each ``Writer``/``Reader`` method one frame and the
    #: fixed-layout headers precompiled structs, paid for by deleting the
    #: module-level ``pack_*``/``unpack_*`` functions and the ACL's
    #: permission-bit helpers (docs/PERF.md §22): 7768 → 7756.
    #: Verified relation files kept decoded, per-path file keys derived once
    #: and a guard node's kept main, paid for by one sorted-name list behind
    #: directory files, member lists and an ACL's owners, one ACL read per
    #: check and a per-character path loop gone (docs/PERF.md §23): 7756 → 7756.
    #: Commit by redo, not undo: the pre-image journal, its restore path and
    #: the in-process guard repair gone (docs/PERF.md §24): 7756 → 7657.
    #: One recovery routine keyed by writer, for restart and takeover, with
    #: the shared-store option and the journal's all-writers recovery gone
    #: (the writer-tagged object ids paid for inside ``core.dedup``):
    #: 7657 → 7653.
    #: The dedup records are the dedup index, read through the engine's
    #: cached path; the enclave-resident copy, its per-span seal, its
    #: reload on abort and its refuse-reload rule gone: 7653 → 7600.
    #: A protected file's chunks 1 to n - 1 are one stored value, written and
    #: read by range, paid for by the per-chunk keys, the reclaim intents'
    #: chunk counts and the store's ``put_many`` group path (docs/PERF.md
    #: §26): 7600 → 7600.
    #: The guard's write path pays each node once — a per-guard decoded-node
    #: memo, in-place bucket updates from precomputed HMAC pads, a handle-free
    #: one-chunk ``write_file`` and a close written as one group per store —
    #: paid for by moving the one-value ``MSetXorHash`` out to the tests as
    #: the reference, the file manager's ``guard``/``group_guard``/``cache``
    #: facades and a single-use engine helper (docs/PERF.md §27): 7600 → 7599.
    #: One memo for verified metadata: a cache entry's slot keeps the object
    #: decoded from its bytes, and every cached read is ``StorageEngine.read``;
    #: the decoded-file and node memos gone (docs/PERF.md §28): 7599 → 7591.
    #: One file-system anchor under one counter for both guards, a kept
    #: bucket bitmap and slots on relation writes, paid for by the per-guard
    #: anchor, lock and counter, the engine's two-anchor branches and
    #: ``repair_guards`` (docs/PERF.md §29): 7591 → 7588.  Crash states as
    #: effect prefixes, the named crash sites gone, and a first start that
    #: builds both guards' nodes and anchors them in one write
    #: (docs/FAULTS.md): 7588 → 7556.  One join, with the ``replica``
    #: option replaced by the store's sealed-key slots and a catch-up that
    #: verifies whatever anchor the share has (docs/CLUSTER.md §4): 7556 → 7554.
    #: Certificates and CSRs are X.509 and PKCS#10 on OpenSSL, checked by
    #: one ``check_certificate``; the hand-written certificate codec, the
    #: dedup store's test-only ``object_count`` and a duplicate group-commit
    #: counter gone, a connection's close now freeing its session: 7554 → 7463.
    #: One ``Epoch`` record on the journal says whether an epoch is open,
    #: in place of four copies kept by hand (docs/PERF.md §5.4): 7463 → 7452.
    #: Pipelined closes and the recovered-record rule, offset by tighter
    #: docstrings in the engine, journal and anchor (docs/PERF.md §31): 7452 → 7450.
    #: A guard walk runs only inside an epoch: the unbatched write mode, the
    #: per-walk re-anchor and the degraded-read knob gone (SECURITY.md): 7450 → 7439.
    TCB_LOC_CEILING = 7439

    def __init__(
        self,
        ca_public_key: rsa.RsaPublicKey,
        stores: StoreSet,
        options: SeGShareOptions | None = None,
        attestation_service: att.AttestationService | None = None,
    ) -> None:
        super().__init__()
        self._ca_public_key = ca_public_key
        self._stores = stores
        self._options = options or SeGShareOptions()
        self._attestation_service = attestation_service
        self._root_key: bytes | None = None
        self._tls_key: rsa.RsaPrivateKey | None = None
        self._pending_join: object | None = None
        self.handler: RequestHandler | None = None
        self.access: AccessControl | None = None
        self.locks: LockManager | None = None
        self.engine: StorageEngine | None = None
        self.manager: TrustedFileManager | None = None
        self.guard: RollbackGuard | None = None
        self.group_guard: FlatStoreGuard | None = None
        self.cache: MetadataCache | None = None
        self.audit_log: AuditLog | None = None
        self.tls: TrustedTlsInterface | None = None

    # -- identity ----------------------------------------------------------------

    def config_measurement_extra(self) -> bytes:
        """The hard-coded CA public key — the paper's build-for-this-CA trick."""
        return self._ca_public_key.serialize()

    # -- lifecycle -----------------------------------------------------------------

    def on_load(self) -> None:
        clock = self.platform.clock
        self.tls = TrustedTlsInterface(
            self,
            self._ca_public_key,
            clock=clock,
            costs=CryptoCostProfile(
                aead_bytes_per_second=self.platform.costs.aead_bytes_per_second
            ),
        )
        # Our own sealed SK_r: unseal it.  Another platform's: this share
        # is keyed, so start keyless and wait for the join (Section V-F).
        # Neither: a first start, which generates SK_r.
        root_key_slot = self._slot(_SEALED_ROOT_KEY)
        if self._stores.content.exists(root_key_slot):
            self._root_key = unseal(self, self._stores.content.get(root_key_slot))
        elif not any(self._stores.content.scan(_SEALED_ROOT_KEY.format(platform=""))):
            self._root_key = secrets.token_bytes(32)
            self._stores.content.put(root_key_slot, seal(self, self._root_key))
        if self._root_key is not None:
            self._build_components()
        self._restore_tls_identity()

    def _slot(self, template: str) -> str:
        return template.format(platform=self.platform.platform_id)

    def _build_components(self, rekeyed: bool = False) -> None:
        assert self._root_key is not None
        # Rebuilds (root-key rotation) must release the previous cache's
        # EPC accounting before the replacement claims its own.
        if self.cache is not None:
            self.cache.clear()
            self.cache = None
        if self._options.metadata_cache_bytes is not None:
            self.cache = MetadataCache(
                self._options.metadata_cache_bytes, epc=self.platform.epc
            )
        counter = None
        if self._options.rollback == "whole_fs":
            counter = self._platform_counter()
        journal = WriteAheadJournal(
            self._stores,
            self._root_key,
            writer=self.platform.platform_id,
            counter_probe=self._counter_probe(counter),
        )
        self.engine = StorageEngine(
            self._stores,
            journal=journal,
            cache=self.cache,
            enclave=self,
        )
        # Cluster deployments install the shared coherence board on the
        # platform before construction (build_cluster), mirroring the
        # shared ROTE quorum.  A fresh manager starts cold at the board's
        # current epoch: a joining or restarted replica has empty caches,
        # so everything already published is vacuously applied.  Attached
        # before the components below so even bootstrap transactions
        # (ensure_root, guard setup) publish their invalidations.
        board = getattr(self.platform, "_segshare_coherence_board", None)
        if board is not None:
            self.engine.attach_coherence(
                CoherenceManager(board, self._root_key, self.engine)
            )
        self.manager = TrustedFileManager(
            self.engine,
            self._root_key,
            enclave=self,
            hide_paths=self._options.hide_paths,
            enable_dedup=self._options.enable_dedup,
        )
        # Re-apply what a crash of ours left committed but not yet applied
        # BEFORE the trusted components read storage, so the dedup records,
        # guard nodes, and directory files all see the committed state.  A
        # peer's record is its own restart's or its takeover's to finish.
        recovered = journal.recover(anchored=lambda: stored_anchor(self.manager.content))
        self.access = build_backend(
            self._options.authz_backend,
            self.manager,
            enclave=self,
        )
        # Enclave-memory-only request locks: a fresh manager per build, so
        # a crash/restart clears every held lock (journal replay is the
        # sole recovery path for half-done mutations).
        self.locks = LockManager(clock=self.platform.clock)
        self.handler = RequestHandler(
            self.manager,
            self.access,
            quota_bytes=self._options.quota_bytes,
            locks=self.locks,
        )
        if self._options.rollback != "off":
            anchor = FileSystemAnchor(self.manager, self, self.locks, counter)
            buckets = self._options.rollback_buckets
            self.guard = self.manager.content.guard = RollbackGuard(
                self.manager, self._root_key, anchor, buckets
            )
            self.group_guard = self.manager.group.guard = FlatStoreGuard(
                self.manager, self._root_key, anchor, buckets
            )
            anchor.boot(rekeyed)
        self._finish_recovery(journal.writer, recovered)
        # The deploy-time transactions above (ensure_root) closed their own
        # epochs; from here on a parallel clock lets overlapping ones share.
        self.engine.group_commit.solo = not isinstance(self.platform.clock, ParallelClock)
        self.webdav = WebDavAdapter(self.handler)
        if self._options.audit:
            self.audit_log = AuditLog(self.manager, self._root_key)

    def _finish_recovery(self, writer: str, record: "EpochRecord | None") -> None:
        """The one epilogue of crash recovery, restart and takeover alike.

        ``journal.recover(writer)`` brought the stores to the writer's last
        committed member.  Repair the guards against its roots, sweep the
        writer's unreferenced objects, and drop its record and parts last,
        so a crash anywhere here re-runs the whole recovery.
        """
        engine = self.engine
        assert engine is not None and self.manager is not None
        if record is not None and engine.anchor is not None:
            engine.anchor.repair((record.fs_main, record.group_main), record.counter)
        self.manager.dedup.sweep_orphans(writer)
        engine.journal.recover_finish(writer)
        if engine.coherence is not None and (record is not None or writer != engine.journal.writer):
            # The writer may have committed without publishing (an epoch
            # publishes at its close); a restart that re-applied nothing
            # leaves the log alone, so a first boot costs the peers nothing.
            # Discard our own plaintext, including write-backs the guard
            # rebuild left, then supersede the log's tail with an
            # authenticated reset: every peer full-discards at its next
            # sync, and a rejoining one starts cold past the reset.
            engine.discard_pending_state()
            engine.drop_derived_state()
            engine.coherence.publish_reset("recovery")

    def _counter_probe(self, counter: "MonotonicCounter | RoteCounterService | None"):
        """A read-only probe of the whole-FS counter for the journal."""
        if counter is None:
            return None

        def probe() -> int:
            if not counter.exists(COUNTER_ID):
                return 0
            return counter.read(self, COUNTER_ID)

        return probe

    def _platform_counter(self) -> "MonotonicCounter | RoteCounterService":
        """The platform's counter service, created once and shared across
        enclave restarts (hardware counters survive enclave teardown)."""
        attr = f"_segshare_counter_{self._options.counter_kind}"
        service = getattr(self.platform, attr, None)
        if service is None:
            if self._options.counter_kind == "sgx":
                service = MonotonicCounter(self.platform.clock, self.platform.costs)
            else:
                service = RoteCounterService(self.platform.clock, self.platform.costs)
            setattr(self.platform, attr, service)
        return service

    @property
    def ready(self) -> bool:
        """True once the enclave has a root key and can serve requests."""
        return self.handler is not None

    def on_destroy(self) -> None:
        """Release the cache's EPC residency on orderly teardown."""
        cache = getattr(self, "cache", None)
        if cache is not None:
            cache.clear()

    # -- certification component (trusted part) ------------------------------------------

    @ecall
    def create_csr(self) -> bytes:
        """Generate the temporary key pair and return a PKCS#10 CSR for a
        ``serverAuth`` certificate whose UID is the measurement (setup step 2)."""
        self._check_alive()
        key = rsa.generate_keypair(1024)
        self._tls_key = key
        self.charge(self.platform.costs.rsa_sign * 40, "keygen")
        subject = x509.Name([
            x509.NameAttribute(NameOID.USER_ID, self.measurement().hex()),
            x509.NameAttribute(NameOID.COMMON_NAME, "segshare-enclave"),
        ])
        builder = x509.CertificateSigningRequestBuilder().subject_name(subject)
        builder = builder.add_extension(x509.ExtendedKeyUsage([ExtendedKeyUsageOID.SERVER_AUTH]), critical=False)
        return builder.sign(key.openssl_key, hashes.SHA256()).public_bytes(Encoding.DER)

    @ecall
    def install_certificate(self, cert_bytes: bytes) -> None:
        """Validate and install the CA-issued server certificate (step 3).

        Persists the certificate and seals the key pair so a restarted
        enclave resumes with the same identity.
        """
        self._check_alive()
        if self._tls_key is None:
            raise EnclaveError("no pending CSR")
        _, key = check_certificate(cert_bytes, self._ca_public_key, ExtendedKeyUsageOID.SERVER_AUTH)
        if key != self._tls_key.public_key:
            raise CertificateError("certificate does not match the pending key pair")
        self._stores.content.put(self._slot(_SERVER_CERT), cert_bytes)
        self._stores.content.put(
            self._slot(_SEALED_TLS_KEY), seal(self, self._tls_key.serialize())
        )
        assert self.tls is not None
        self.tls.install_identity(ServerIdentity(cert_bytes, self._tls_key))

    def _restore_tls_identity(self) -> None:
        cert_slot = self._slot(_SERVER_CERT)
        key_slot = self._slot(_SEALED_TLS_KEY)
        if self._stores.content.exists(cert_slot) and self._stores.content.exists(key_slot):
            cert = self._stores.content.get(cert_slot)
            key = rsa.RsaPrivateKey.deserialize(
                unseal(self, self._stores.content.get(key_slot))
            )
            self._tls_key = key
            assert self.tls is not None
            self.tls.install_identity(ServerIdentity(cert, key))

    # -- TLS ECALLs ------------------------------------------------------------------------

    @ecall
    def new_session(self) -> int:
        self._check_alive()
        assert self.tls is not None
        return self.tls.new_session()

    @ecall
    def on_record(self, session_id: int, raw: bytes) -> list[bytes]:
        """Process one TLS record.

        The record buffer is the enclave's only per-request allocation —
        the paper's "small, constant size buffer" claim, made checkable
        through the EPC model: the working set never grows with file
        size, so paging never triggers (tests/core/test_epc_usage.py).
        """
        self._check_alive()
        assert self.tls is not None
        self.platform.epc.alloc(len(raw))
        try:
            return self.tls.on_record(session_id, raw)
        finally:
            self.platform.epc.free(len(raw))

    @ecall
    def close_session(self, session_id: int) -> None:
        self._check_alive()
        assert self.tls is not None
        self.tls.close_session(session_id)

    # -- TlsApplication ------------------------------------------------------------------------

    def handle_message(self, user_id: str, payload: bytes) -> "bytes | StreamingResponse":
        if self.handler is None:
            return Response.error("server is not ready (replica has not joined)").serialize()
        if payload.startswith(_WEBDAV_MARKER):
            return self._handle_webdav(user_id, payload[len(_WEBDAV_MARKER):])
        try:
            request = Request.deserialize(payload)
        except ReproError as exc:
            return Response.error(str(exc)).serialize()
        result = self.handler.handle(user_id, request)
        if isinstance(result, StreamingResponse):
            try:
                self._audit(user_id, request.op.name, request.args, "ok")
            except BaseException:
                result.close()  # never handed on, so nobody else would
                raise
            return result
        self._audit(user_id, request.op.name, request.args, result.status.name.lower())
        return result.serialize()

    def open_upload(self, user_id: str, header: bytes) -> UploadSink | object:
        if self.handler is None:
            return _RejectingSink(Response.error("server is not ready"))
        try:
            request = Request.deserialize(header)
            if request.op is not Op.PUT_FILE:
                raise RequestError("streaming messages must be PUT_FILE")
            sink = self.handler.open_upload(user_id, request.args[0])
            if self.audit_log is not None:
                return _AuditedSink(self, user_id, request, sink)
            return sink
        except EnclaveCrashed:
            raise
        except ReproError as exc:
            if isinstance(exc, AccessDenied):
                self._audit(user_id, Op.PUT_FILE.name, request.args, "denied")
            return _RejectingSink(response_for(exc))

    def _handle_webdav(self, user_id: str, raw: bytes) -> bytes:
        """Section VI front end: a WebDAV message over the secure channel."""
        op = "DAV"
        args: tuple[str, ...] = ()
        try:
            request = HttpRequest.parse(raw)
            op = f"DAV-{request.method.value}"
            args = (request.path,)
            response = self.webdav.dispatch(user_id, request)
        except ReproError as exc:
            response = HttpResponse(400, "Bad Request", body=str(exc).encode())
        self._audit(user_id, op, args, str(response.status))
        return response.serialize()

    def _audit(self, user_id: str, op: str, args: tuple, outcome: str) -> None:
        if self.audit_log is not None:
            self.audit_log.append(self.platform.clock.now(), user_id, op, tuple(args), outcome)

    @ecall
    def audit_export(self, nonce: bytes, signature: bytes) -> list[bytes]:
        """Export the verified audit trail against a CA-signed authorization.

        Plaintext records leave the enclave only through this gate — the
        untrusted host cannot read the log on its own.
        """
        self._check_alive()
        if self.audit_log is None:
            raise EnclaveError("audit logging is not enabled")
        message = export_message_bytes(self.platform.platform_id, nonce)
        if not rsa.verify(self._ca_public_key, message, signature):
            raise BackupError("audit export authorization is invalid")
        return [record.serialize() for record in self.audit_log.read_all()]

    # -- replication (Section V-F) ------------------------------------------------------------

    @ecall
    def replication_begin_join(self) -> tuple[bytes, bytes]:
        """Replica side, step 1: (quote, DH public) to present to a root enclave."""
        self._check_alive()
        if self._root_key is not None:
            raise ReplicationError("this enclave already has a root key")
        qe = self._quoting_enclave()
        keypair, quote = att.enclave_key_exchange_offer(self, qe)
        self._pending_join = keypair
        return quote.serialize(), keypair.public_bytes()

    @ecall
    def replication_share_root_key(
        self, peer_quote_bytes: bytes, peer_public: bytes
    ) -> tuple[bytes, bytes, bytes]:
        """Root side: verify the replica's quote and return the wrapped SK_r.

        Returns (own quote, own DH public, PAE-encrypted SK_r).  Per the
        paper, the measurements must be **equal** — both enclaves were
        compiled for the same CA.
        """
        self._check_alive()
        if self._root_key is None:
            raise ReplicationError("this enclave has no root key to share")
        quote = att.Quote.deserialize(peer_quote_bytes)
        self._verify_peer_quote(quote, peer_public)
        qe = self._quoting_enclave()
        keypair, own_quote = att.enclave_key_exchange_offer(self, qe)
        shared = att.enclave_key_exchange_finish(keypair, peer_public)
        channel_key = derive_key(shared, "segshare/replication", length=16)
        wrapped = default_pae().encrypt(channel_key, self._root_key, aad=b"segshare-root-key")
        return own_quote.serialize(), keypair.public_bytes(), wrapped

    @ecall
    def replication_complete_join(
        self, root_quote_bytes: bytes, root_public: bytes, wrapped_key: bytes
    ) -> None:
        """Replica side, step 2: verify the root enclave and adopt SK_r."""
        self._check_alive()
        keypair = self._pending_join
        if keypair is None:
            raise ReplicationError("no join in progress")
        quote = att.Quote.deserialize(root_quote_bytes)
        self._verify_peer_quote(quote, root_public)
        shared = att.enclave_key_exchange_finish(keypair, root_public)
        channel_key = derive_key(shared, "segshare/replication", length=16)
        self._root_key = default_pae().decrypt(channel_key, wrapped_key, aad=b"segshare-root-key")
        self._stores.content.put(self._slot(_SEALED_ROOT_KEY), seal(self, self._root_key))
        self._build_components()
        # Cleared only once the join fully succeeded, so a transient
        # storage fault above leaves the join retryable.
        self._pending_join = None

    def _verify_peer_quote(self, quote: att.Quote, peer_public: bytes) -> None:
        if self._attestation_service is None:
            raise ReplicationError("no attestation service configured")
        self._attestation_service.verify(quote, expected_measurement=self.measurement())
        if quote.report_data != att.bind_public_value(peer_public):
            raise AttestationError("peer quote does not bind the offered public value")

    def _quoting_enclave(self) -> att.QuotingEnclave:
        qe = getattr(self.platform, "quoting_enclave", None)
        if qe is None:
            raise ReplicationError("platform has no quoting enclave")
        return qe

    # -- backup restore (Section V-G) -------------------------------------------------------------

    @staticmethod
    def reset_message_bytes(platform_id: str, nonce: bytes) -> bytes:
        """The exact bytes the CA signs to authorize a rollback-state reset."""
        return _RESET_CONTEXT + Writer().str(platform_id).bytes(nonce).take()

    @ecall
    def reset_after_restore(self, nonce: bytes, signature: bytes) -> None:
        """Accept a restored backup: CA-signed reset, consistency check,
        counter overwrite (the paper's restoration procedure)."""
        self._check_alive()
        message = self.reset_message_bytes(self.platform.platform_id, nonce)
        if not rsa.verify(self._ca_public_key, message, signature):
            raise BackupError("reset message signature is invalid")
        if self.engine is not None:
            # The provider replaced the stores underneath us: every cached
            # object, dedup records among them, describes the pre-restore
            # world and must go before the consistency walk reads storage.
            self.engine.drop_derived_state(restored=True)
            if self.engine.anchor is not None:
                self.engine.anchor.repair(None)

    # -- root-key rotation (production extension; see repro/core/rotation.py) ----

    @ecall
    def rotate_root_key(self, nonce: bytes, signature: bytes) -> RotationStats:
        """Re-key the whole deployment under a fresh SK_r.

        Requires a CA-signed authorization; verifies the current state
        through the rollback guards while snapshotting, then rebuilds
        everything — file keys, hidden paths, dedup addresses, guard
        trees, audit chain — under the new key.
        """
        self._check_alive()
        message = rotate_message_bytes(self.platform.platform_id, nonce)
        if not rsa.verify(self._ca_public_key, message, signature):
            raise BackupError("rotation authorization is invalid")
        if self.manager is None:
            raise EnclaveError("enclave is not ready")
        snapshot = snapshot_state(self.manager, self.audit_log)
        wipe_stores(self.manager, preserve_prefix="\x00segshare:")
        self._root_key = secrets.token_bytes(32)
        self._stores.content.put(
            self._slot(_SEALED_ROOT_KEY), seal(self, self._root_key)
        )
        self._build_components(rekeyed=True)
        return replay_state(self.manager, self.audit_log, snapshot)

    # -- cache coherence across the host boundary ---------------------------------------------

    @ecall
    def invalidate_metadata_cache(self) -> None:
        """Strictly invalidate enclave-resident metadata state.

        Called by the untrusted host after it restored a backup onto a
        live enclave, changing storage behind its back.  (Cluster members
        need no such call: a cached member is admitted only onto a shared
        coherence log, docs/CLUSTER.md §4.)  Dropping cached plaintext is
        always safe (the next read re-verifies from storage); keeping it
        would not be.
        """
        self._check_alive()
        if self.engine is not None:
            self.engine.drop_derived_state(restored=True)

    # -- cluster support (replica failover and membership; docs/CLUSTER.md) -------

    @ecall
    def cluster_begin_request(self, token: str) -> None:
        """Arm the next transaction with the front door's request token.

        The token is PAE-sealed and committed atomically with the
        request's journal batch, so after a mid-request crash a successor
        replica can distinguish "committed — do not re-execute" from
        "rolled back — safe to retry" by reading the last committed
        stamp.  The front door re-arms before *every* routed request, so
        a stale token can never outlive the request it names.
        """
        self._check_alive()
        if self.engine is None:
            raise EnclaveError("enclave is not ready")
        self.engine.pending_stamp = token

    @ecall
    def group_commit_quiesce(self) -> None:
        """Close any open group-commit epoch.

        An open epoch keeps guard batches over the shared tree in this
        enclave's memory, so two replicas must never both hold one open:
        the front door quiesces a replica before routing traffic to
        another, before membership changes, and before a successor
        finishes a crashed peer's record.  A no-op when no epoch is open.
        """
        self._check_alive()
        if self.engine is not None:
            self.engine.quiesce()

    @ecall
    def cluster_last_committed_stamp(self) -> str | None:
        """The token of the last request whose transaction committed."""
        self._check_alive()
        if self.engine is None:
            raise EnclaveError("enclave is not ready")
        return self.engine.journal.read_committed_stamp()

    @ecall
    def cluster_takeover_recover(self, crashed: str) -> bool:
        """Successor side of failover: finish the crashed peer's commits.

        A restart's recovery, keyed by the crashed writer (``crashed``
        names its platform id) instead of our own: every replica writes
        its records, parts and objects under its own id, so no live peer's
        are touched.  Cached plaintext goes before the record is admitted (the
        peer may have anchored unpublished) and after the re-apply, which
        wrote behind it.  Returns True when a record was found.
        """
        self._check_alive()
        if self.engine is None:
            raise EnclaveError("enclave is not ready")
        # Our own open epoch holds guard batches in enclave memory; flush
        # it before rebuilding the guards for the crashed peer's commits.
        self.engine.quiesce()
        journal = self.engine.journal
        if journal.epoch is not None:
            raise EnclaveError("cannot take over with our own transaction in flight")
        self.engine.drop_derived_state()
        record = journal.recover(crashed, lambda: stored_anchor(self.manager.content))
        self.engine.drop_derived_state()
        self._finish_recovery(crashed, record)
        return record is not None

    @ecall
    def cluster_verify_anchor(self) -> bool:
        """Join catch-up: prove the file-system anchor, if the share has one.

        A replica is admitted to the placement ring only after this
        passes.  Under whole-FS protection it refuses the degraded-read
        escape hatch, so a joining replica wired to the wrong (or an
        empty) counter quorum is rejected instead of silently serving a
        rolled-back snapshot.  Returns whether an anchor was verified.
        """
        self._check_alive()
        anchor = self.engine.anchor if self.engine is not None else None
        if anchor is not None:
            anchor.verify_fresh()
        return anchor is not None

    @ecall
    def authz_reconcile(self) -> dict:
        """Flush the authorization backend's deferred re-wrap queue.

        For the IBBE envelope backend this settles the revocation debt:
        stale file content keys are rotated, payloads re-encrypted, and
        envelopes re-wrapped (its own storage transaction — all-or-
        nothing like any mutating request).  A metadata backend returns
        an empty report.
        """
        self._check_alive()
        if self.access is None:
            raise EnclaveError("enclave has no authorization backend yet")
        return self.access.reconcile()

    @ecall
    def runtime_stats(self) -> dict:
        """Cache/guard/EPC counters for operators and the benchmark harness."""
        self._check_alive()
        epc = self.platform.epc.stats
        stats: dict = {
            "epc": {
                "allocated": epc.allocated,
                "peak": epc.peak,
                "page_swaps": epc.page_swaps,
                "cache_bytes": epc.cache_bytes,
            }
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats.snapshot()
        if self.engine is not None:
            stats["engine"] = self.engine.stats.snapshot()
            stats["engine"]["intents_recovered"] = self.engine.journal.intents_recovered
            stats["group_commit"] = self.engine.group_commit.stats.snapshot()
            if self.engine.coherence is not None:
                stats["coherence"] = self.engine.coherence.snapshot()
        if self.locks is not None:
            stats["locks"] = self.locks.stats.snapshot()
        for name, guard in (("rollback_guard", self.guard), ("group_guard", self.group_guard)):
            if guard is not None:
                stats[name] = guard.stats.snapshot()
        if self.guard is not None:
            # The one anchor's writes, counted with the content tree it roots.
            stats["rollback_guard"]["anchor_writes"] = self.guard.anchor.writes
        if self.access is not None:
            stats["authz"] = {"backend": self.access.name, **self.access.counters()}
        return stats


class _AuditedSink:
    """Wraps an upload sink so the final outcome lands in the audit log."""

    def __init__(self, enclave: SeGShareEnclave, user_id: str, request: Request, sink) -> None:
        self._enclave = enclave
        self._user_id = user_id
        self._request = request
        self._sink = sink

    def write(self, chunk: bytes) -> None:
        self._sink.write(chunk)

    def finish(self) -> bytes:
        result = self._sink.finish()
        outcome = Response.deserialize(result).status.name.lower()
        self._enclave._audit(
            self._user_id, self._request.op.name, self._request.args, outcome
        )
        return result

    def abort(self) -> None:
        self._sink.abort()
        self._enclave._audit(
            self._user_id, self._request.op.name, self._request.args, "aborted"
        )


class _RejectingSink:
    """Upload sink that drains the stream and answers with a fixed response."""

    def __init__(self, response: Response) -> None:
        self._response = response

    def write(self, chunk: bytes) -> None:
        del chunk  # stream is consumed and discarded

    def finish(self) -> bytes:
        return self._response.serialize()

    def abort(self) -> None:
        pass
