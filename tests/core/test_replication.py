"""Replication (§V-F): root-key transfer over attested channels."""

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.replication import ReplicaSet, transfer_root_key
from repro.core.requests import Response, Status
from repro.core.server import SeGShareServer, deploy, provision_certificate
from repro.errors import MembershipError, ReplicationError, ReproError
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.sgx import SgxPlatform
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet


@pytest.fixture()
def cluster(user_key):
    """A root deployment over a shared backend plus a helper to add replicas."""
    backend = InMemoryStore()
    deployment = deploy(env=azure_wan_env(), stores=StoreSet.over(backend))

    def add_replica(options=None, ca=None, register=True):
        env = azure_wan_env()
        options = options or SeGShareOptions(replica=True)
        ca = ca or deployment.ca
        server = SeGShareServer(
            env,
            ca.public_key,
            stores=StoreSet.over(backend),
            options=options,
            attestation_service=deployment.attestation,
            platform=SgxPlatform(clock=env.clock),
        )
        if register:
            deployment.attestation.register_platform(
                server.platform.platform_id,
                server.platform.quoting_enclave.attestation_public_key,
            )
            provision_certificate(
                ca, deployment.attestation, server, server.enclave.measurement()
            )
        return server

    return deployment, add_replica, backend


class TestJoin:
    def test_replica_obtains_root_key(self, cluster, user_key):
        deployment, add_replica, _ = cluster
        replica = add_replica()
        assert not replica.enclave.ready
        transfer_root_key(deployment.server, replica)
        assert replica.enclave.ready

    def test_replica_serves_shared_data(self, cluster, user_key):
        deployment, add_replica, _ = cluster
        alice = deployment.new_user("alice", key=user_key)
        alice.upload("/shared", b"via root")

        replica = add_replica()
        transfer_root_key(deployment.server, replica)

        from repro.core.client import SeGShareClient
        from repro.tls import TlsClient

        identity = deployment.user_identity("alice", key=user_key)
        tls = TlsClient(
            replica.endpoint().connect(),
            identity,
            deployment.ca.public_key,
            clock=replica.env.clock,
        )
        tls.handshake()
        assert SeGShareClient(tls).download("/shared") == b"via root"

    def test_replica_set_bookkeeping(self, cluster):
        deployment, add_replica, _ = cluster
        replica_set = ReplicaSet(deployment.server)
        replica = add_replica()
        assert replica_set.join(replica)
        assert replica_set.all_servers == [deployment.server, replica]

    def test_join_is_idempotent(self, cluster):
        deployment, add_replica, _ = cluster
        replica_set = ReplicaSet(deployment.server)
        replica = add_replica()
        assert replica_set.join(replica)
        # A second join of the same replica is a no-op, not a re-transfer.
        assert not replica_set.join(replica)
        assert replica_set.all_servers == [deployment.server, replica]


class TestSharedRepository:
    """The root and a joined replica write one repository: each recovers
    and sweeps only what its own writer left."""

    def test_root_restart_keeps_a_replica_upload_in_flight(self, cluster):
        deployment, add_replica, _ = cluster
        replica = add_replica()
        assert ReplicaSet(deployment.server).join(replica)
        content = bytes(i % 251 for i in range(4 * 4096 + 9))
        sink = replica.enclave.handler.open_upload("alice", "/streamed")
        sink.write(content[: 2 * 4096 + 1])  # chunk 1 is on the store
        deployment.server.restart_enclave()  # boots and sweeps mid-stream
        sink.write(content[2 * 4096 + 1 :])
        response = Response.deserialize(sink.finish())
        assert response.status is Status.OK, response.message
        assert replica.enclave.manager.read_content("/streamed") == content
        assert deployment.server.enclave.manager.read_content("/streamed") == content


class TestRejections:
    def test_different_ca_measurement_rejected(self, cluster):
        """An enclave compiled for another CA has another measurement; the
        root enclave refuses to share SK_r with it."""
        deployment, add_replica, _ = cluster
        rogue_ca = CertificateAuthority(name="rogue", key_bits=1024)
        rogue = add_replica(
            options=SeGShareOptions(replica=True), ca=rogue_ca
        )
        with pytest.raises(Exception):
            transfer_root_key(deployment.server, rogue)
        assert not rogue.enclave.ready

    def test_unregistered_platform_rejected(self, cluster):
        deployment, add_replica, _ = cluster
        replica = add_replica(register=False)
        with pytest.raises(Exception):
            transfer_root_key(deployment.server, replica)

    def test_failed_attestation_is_typed_membership_error(self, cluster):
        """ReplicaSet.join refuses an unattestable replica with a typed
        error, before any key material moves."""
        deployment, add_replica, _ = cluster
        replica_set = ReplicaSet(deployment.server)
        replica = add_replica(register=False)
        with pytest.raises(MembershipError):
            replica_set.join(replica)
        assert not replica.enclave.ready
        assert replica_set.all_servers == [deployment.server]

    def test_joining_the_root_itself_is_rejected(self, cluster):
        deployment, _, _ = cluster
        replica_set = ReplicaSet(deployment.server)
        with pytest.raises(MembershipError):
            replica_set.join(deployment.server)

    def test_self_replication_rejected(self, cluster):
        deployment, _, _ = cluster
        with pytest.raises(ReplicationError):
            transfer_root_key(deployment.server, deployment.server)

    def test_enclave_with_key_cannot_join_again(self, cluster):
        deployment, add_replica, _ = cluster
        replica = add_replica()
        transfer_root_key(deployment.server, replica)
        with pytest.raises(Exception):
            replica.handle.call("replication_begin_join")

    def test_replica_without_key_cannot_share(self, cluster):
        deployment, add_replica, _ = cluster
        replica = add_replica()
        with pytest.raises(Exception):
            replica.handle.call("replication_share_root_key", b"", b"")

    @pytest.mark.parametrize(
        "reshape", [lambda v: b"\x00" + v, lambda v: v[1:]], ids=["zero-padded", "truncated"]
    )
    def test_host_reshaped_dh_value_is_a_typed_error(self, cluster, reshape):
        """The untrusted host carries the DH values between the enclaves; a
        re-encoded one (same number, other width) is refused in both
        directions with a typed error, and no key moves."""
        deployment, add_replica, _ = cluster
        replica = add_replica()
        replica_quote, replica_pub = replica.handle.call("replication_begin_join")
        with pytest.raises(ReproError):
            deployment.server.handle.call(
                "replication_share_root_key", replica_quote, reshape(replica_pub)
            )
        root_quote, root_pub, wrapped = deployment.server.handle.call(
            "replication_share_root_key", replica_quote, replica_pub
        )
        with pytest.raises(ReproError):
            replica.handle.call(
                "replication_complete_join", root_quote, reshape(root_pub), wrapped
            )
        assert not replica.enclave.ready

    def test_complete_join_without_begin_rejected(self, cluster):
        deployment, add_replica, _ = cluster
        replica = add_replica()
        with pytest.raises(Exception):
            replica.handle.call("replication_complete_join", b"", b"", b"")
