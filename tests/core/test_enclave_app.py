"""The SeGShare enclave itself: setup phase, sealing persistence, TCB."""

import pytest
from cryptography.hazmat.primitives.serialization import Encoding
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from repro.core.enclave_app import SeGShareEnclave, SeGShareOptions
from repro.core.server import SeGShareServer, provision_certificate
from repro.errors import AttestationError, CertificateError, EnclaveError
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.tls.handshake import check_certificate
from tests.support.pki import server_certificate


class TestSetupPhase:
    def test_deploy_provisions_server_certificate(self, deployment):
        assert deployment.server.enclave.tls.has_identity
        cert = deployment.server_certificate
        assert cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)[0].value == "segshare-enclave"
        uid, _ = check_certificate(
            cert.public_bytes(Encoding.DER), deployment.ca.public_key, ExtendedKeyUsageOID.SERVER_AUTH
        )
        assert uid == deployment.server.enclave.measurement().hex()

    def test_measurement_binds_ca_key(self, make_deployment):
        a = make_deployment()
        b = make_deployment()  # different CA instance, different key
        assert a.server.enclave.measurement() != b.server.enclave.measurement()

    def test_csr_requires_matching_certificate(self, deployment, user_key):
        """A certificate over a *different* key than the pending CSR is
        rejected by the enclave."""
        server = deployment.server
        server.handle.call("create_csr")
        rogue_cert = server_certificate(deployment.ca, user_key)
        with pytest.raises(CertificateError, match="pending key pair"):
            server.handle.call("install_certificate", rogue_cert)

    @pytest.mark.parametrize(
        "mangle",
        [lambda der: b"", lambda der: b"\x30\x82garbage", lambda der: der[:-1]],
        ids=["empty", "garbage", "truncated"],
    )
    def test_garbage_certificate_is_a_certificate_error(self, deployment, mangle):
        server = deployment.server
        server.handle.call("create_csr")
        with pytest.raises(CertificateError, match="malformed certificate"):
            server.handle.call("install_certificate", mangle(server_certificate(deployment.ca, server.enclave._tls_key)))

    def test_client_certificate_is_not_installed(self, deployment):
        """A CA-signed certificate for the right key, but for clientAuth."""
        server = deployment.server
        server.handle.call("create_csr")
        key = server.enclave._tls_key
        cert = deployment.ca.issue_client_certificate("x", key.public_key).public_bytes(Encoding.DER)
        with pytest.raises(CertificateError, match="extended key usage"):
            server.handle.call("install_certificate", cert)

    def test_certificate_from_another_ca_is_not_installed(self, deployment):
        server = deployment.server
        server.handle.call("create_csr")
        rogue = CertificateAuthority(name="rogue", key_bits=1024)
        with pytest.raises(CertificateError, match="invalid signature"):
            server.handle.call("install_certificate", server_certificate(rogue, server.enclave._tls_key))

    def test_install_without_csr_rejected(self, deployment):
        env = azure_wan_env()
        fresh = SeGShareServer(env, deployment.ca.public_key)  # never provisioned
        with pytest.raises(EnclaveError):
            fresh.enclave.install_certificate(
                deployment.server_certificate.public_bytes(Encoding.DER)
            )

    def test_provisioning_checks_measurement(self):
        env = azure_wan_env()
        ca = CertificateAuthority(key_bits=1024)
        from repro.sgx import AttestationService

        service = AttestationService()
        server = SeGShareServer(env, ca.public_key, attestation_service=service)
        service.register_platform(
            server.platform.platform_id,
            server.platform.quoting_enclave.attestation_public_key,
        )
        with pytest.raises(AttestationError):
            provision_certificate(ca, service, server, expected_measurement=b"wrong")


class TestPersistence:
    def test_restart_recovers_sealed_state(self, deployment):
        alice_identity = deployment.user_identity("alice")
        alice = deployment.connect(alice_identity)
        alice.upload("/persist.txt", b"survives restarts")

        deployment.server.restart_enclave()

        alice2 = deployment.connect(alice_identity)
        assert alice2.download("/persist.txt") == b"survives restarts"

    def test_restart_keeps_tls_identity(self, deployment):
        deployment.server.restart_enclave()
        assert deployment.server.enclave.tls.has_identity

    def test_restart_with_rollback_protection(self, make_deployment):
        deployment = make_deployment(
            SeGShareOptions(rollback="whole_fs", counter_kind="rote")
        )
        identity = deployment.user_identity("alice")
        deployment.connect(identity).upload("/f", b"guarded")
        deployment.server.restart_enclave()
        assert deployment.connect(identity).download("/f") == b"guarded"


class TestTcb:
    def test_report_covers_declared_modules(self, deployment):
        report = deployment.server.enclave.tcb_report()
        assert set(SeGShareEnclave.TCB_MODULES) <= set(report.per_module)

    def test_enclave_loc_budget_only_shrinks(self, deployment):
        """The paper's enclave is 8441 LoC; ours is a tracked budget."""
        report = deployment.server.enclave.tcb_report()
        ceiling = SeGShareEnclave.TCB_LOC_CEILING
        assert report.total <= ceiling, (
            f"enclave grew to {report.total} LoC, over the {ceiling} ceiling:\n"
            + report.format()
        )

    def test_untrusted_modules_stay_outside(self, deployment):
        report = deployment.server.enclave.tcb_report()
        for module in ("repro.core.server", "repro.netsim.network", "repro.sgx.attestation"):
            assert module not in report.per_module


class TestReadiness:
    def test_first_start_generates_the_root_key(self):
        """An empty store: no enclave keyed this share yet, so SK_r is made
        and sealed to this platform's slot."""
        ca = CertificateAuthority(key_bits=1024)
        server = SeGShareServer(azure_wan_env(), ca.public_key)
        assert server.enclave.ready
        slots = list(server.stores.content.scan("\x00segshare:sealed-root-key:"))
        assert slots == [f"\x00segshare:sealed-root-key:{server.platform.platform_id}"]

    def test_replica_not_ready_until_joined(self):
        """Another platform's sealed SK_r is in the store: wait for the join."""
        ca = CertificateAuthority(key_bits=1024)
        first = SeGShareServer(azure_wan_env(), ca.public_key)
        second = SeGShareServer(azure_wan_env(), ca.public_key, stores=first.stores)
        assert not second.enclave.ready
        root_key = first.enclave._root_key
        first.restart_enclave()  # its own slot: unsealed, not regenerated
        assert first.enclave._root_key == root_key

    def test_options_validated(self):
        with pytest.raises(ValueError):
            SeGShareOptions(rollback="sometimes")
        with pytest.raises(ValueError):
            SeGShareOptions(counter_kind="hope")

    def test_journal_cannot_be_turned_off(self):
        assert SeGShareOptions().journal
        with pytest.raises(ValueError, match="only write path"):
            SeGShareOptions(journal=False)
