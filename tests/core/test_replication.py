"""Replication (§V-F) through the one join: cluster admission.

The share here is what a plain ``deploy()`` serves — rollback off, no
metadata cache, so no coherence log — with its members stood up by
``ClusterDeployment.new_server``.  The join over a whole-FS, cached
cluster is in tests/cluster/test_membership.py.
"""

import pytest

from repro.cluster import ClusterDeployment
from repro.core.client import SeGShareClient
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Response, Status
from repro.core.server import provision_certificate
from repro.errors import MembershipError, RequestError, ReproError
from repro.netsim import SimClock
from repro.pki import CertificateAuthority
from repro.tls import TlsClient
from repro.tls.handshake import ClientIdentity

_CA = CertificateAuthority(key_bits=1024)


@pytest.fixture()
def share():
    """A §V-F share with one keyed member, ``r0``."""
    deployment = ClusterDeployment(SimClock(), _CA, SeGShareOptions())
    deployment.servers["r0"] = root = deployment.new_server()
    assert deployment.cluster.admit("r0", root)
    return deployment


def connect(deployment, server, user, key) -> SeGShareClient:
    """Certify ``server`` and open a TLS session to it as ``user``."""
    provision_certificate(_CA, deployment.attestation, server, server.enclave.measurement())
    identity = ClientIdentity(
        certificate=_CA.issue_client_certificate(user, key.public_key), private_key=key
    )
    tls = TlsClient(server.endpoint().connect(), identity, _CA.public_key, clock=server.env.clock)
    tls.handshake()
    return SeGShareClient(tls)


class TestJoin:
    def test_replica_obtains_root_key(self, share):
        replica = share.new_server()
        assert not replica.enclave.ready
        assert share.cluster.admit("r1", replica)
        assert replica.enclave.ready
        # Rollback off: the share has no anchor for the catch-up to prove.
        assert replica.handle.call("cluster_verify_anchor") is False

    def test_catch_up_proves_an_individual_shares_anchor(self):
        """Per-file protection has an anchor but no counter: the join
        verifies the stored roots against it."""
        deployment = ClusterDeployment(SimClock(), _CA, SeGShareOptions(rollback="individual"))
        for name in ("r0", "r1"):
            deployment.servers[name] = server = deployment.new_server()
            assert deployment.cluster.admit(name, server)
        assert deployment.server("r1").handle.call("cluster_verify_anchor") is True

    def test_replica_serves_shared_data(self, share, user_key):
        """A server over a store another platform keyed starts without
        SK_r, answers "not ready", and serves the share once admitted."""
        connect(share, share.server("r0"), "alice", user_key).upload("/shared", b"via root")
        replica = share.new_server()
        alice = connect(share, replica, "alice", user_key)
        with pytest.raises(RequestError, match="not ready"):
            alice.download("/shared")
        assert share.cluster.admit("r1", replica)
        assert alice.download("/shared") == b"via root"

    def test_join_is_idempotent(self, share):
        replica = share.new_server()
        assert share.cluster.admit("r1", replica)
        # A second join of the same replica is a no-op, not a re-transfer.
        assert not share.cluster.admit("r1", replica)
        assert share.cluster.membership.ring.members == ["r0", "r1"]


class TestSharedRepository:
    """The root and a joined replica write one repository: each recovers
    and sweeps only what its own writer left."""

    def test_root_restart_keeps_a_replica_upload_in_flight(self, share):
        root, replica = share.server("r0"), share.new_server()
        assert share.cluster.admit("r1", replica)
        content = bytes(i % 251 for i in range(4 * 4096 + 9))
        sink = replica.enclave.handler.open_upload("alice", "/streamed")
        sink.write(content[: 2 * 4096 + 1])  # chunk 1 is on the store
        root.restart_enclave()  # boots and sweeps mid-stream
        sink.write(content[2 * 4096 + 1 :])
        response = Response.deserialize(sink.finish())
        assert response.status is Status.OK, response.message
        assert replica.enclave.manager.read_content("/streamed") == content
        assert root.enclave.manager.read_content("/streamed") == content


class TestRejections:
    def test_different_ca_measurement_rejected(self, share):
        """An enclave compiled for another CA has another measurement; the
        join refuses it before any key material moves."""
        rogue = share.new_server(ca=CertificateAuthority(name="rogue", key_bits=1024))
        with pytest.raises(MembershipError, match="attestation"):
            share.cluster.admit("r1", rogue)
        assert not rogue.enclave.ready
        assert share.cluster.membership.ring.members == ["r0"]

    def test_failed_attestation_is_typed_membership_error(self, share):
        """An unregistered platform is refused with a typed error, before
        any key material moves."""
        replica = share.new_server(register=False)
        with pytest.raises(MembershipError):
            share.cluster.admit("r1", replica)
        assert not replica.enclave.ready
        assert share.cluster.membership.ring.members == ["r0"]

    def test_joining_the_root_itself_is_rejected(self, share):
        """A member's server under a second name is no new member: no donor
        but itself, and its own key must not pass it as a first member."""
        share.servers["r1"] = replica = share.new_server()
        assert share.cluster.admit("r1", replica)
        for server in (share.server("r0"), replica):
            with pytest.raises(MembershipError, match="already a member"):
                share.cluster.admit("r9", server)
        assert share.cluster.membership.ring.members == ["r0", "r1"]

    def test_enclave_with_key_cannot_join_again(self, share):
        with pytest.raises(ReproError, match="already has a root key"):
            share.server("r0").handle.call("replication_begin_join")

    def test_replica_without_key_cannot_share(self, share):
        with pytest.raises(ReproError, match="no root key to share"):
            share.new_server().handle.call("replication_share_root_key", b"", b"")

    @pytest.mark.parametrize(
        "reshape", [lambda v: b"\x00" + v, lambda v: v[1:]], ids=["zero-padded", "truncated"]
    )
    def test_host_reshaped_dh_value_is_a_typed_error(self, share, reshape):
        """The untrusted host carries the DH values between the enclaves; a
        re-encoded one (same number, other width) is refused in both
        directions with a typed error, and no key moves."""
        root, replica = share.server("r0"), share.new_server()
        replica_quote, replica_pub = replica.handle.call("replication_begin_join")
        with pytest.raises(ReproError):
            root.handle.call("replication_share_root_key", replica_quote, reshape(replica_pub))
        root_quote, root_pub, wrapped = root.handle.call(
            "replication_share_root_key", replica_quote, replica_pub
        )
        with pytest.raises(ReproError):
            replica.handle.call("replication_complete_join", root_quote, reshape(root_pub), wrapped)
        assert not replica.enclave.ready

    def test_complete_join_without_begin_rejected(self, share):
        with pytest.raises(ReproError, match="no join in progress"):
            share.new_server().handle.call("replication_complete_join", b"", b"", b"")
