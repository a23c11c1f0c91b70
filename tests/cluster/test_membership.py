"""Membership: attested join, catch-up gate, eviction, rejoin."""

import pytest

from repro.cluster import build_cluster, cluster_options
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import MembershipError
from repro.netsim import Link, NetworkEnv
from repro.netsim.network import AZURE_WAN
from repro.pki import CertificateAuthority
from repro.sgx import SgxPlatform
from repro.sgx.attestation import QuotingEnclave
from repro.storage.stores import StoreSet

#: One CA for the whole module — RSA key generation dominates setup.
_CA = CertificateAuthority(key_bits=1024)


def small_cluster(replicas=3):
    return build_cluster(replicas=replicas, ca=_CA)


def kill(server):
    """Simulate a crash the way FaultPlan does: volatile state is gone,
    nothing is unloaded cleanly, sealed blobs survive on the platform."""
    server.enclave._destroyed = True


def read_file(server, path):
    response = server.enclave.handler.handle(
        "alice", Request(op=Op.GET, args=(path,))
    )
    assert hasattr(response, "chunks"), f"GET failed: {response}"
    return b"".join(response.chunks)


def make_candidate(deployment, register=True):
    """A replica server on the shared backend, outside the cluster."""
    root = deployment.server("r0")
    clock = root.env.clock
    platform = SgxPlatform(clock=clock)
    platform.quoting_enclave = QuotingEnclave(platform)
    platform._segshare_counter_rote = root.platform._segshare_counter_rote
    # A cached cluster admits only candidates wired to its coherence log.
    if deployment.board is not None:
        platform._segshare_coherence_board = deployment.board
    env = NetworkEnv(clock=clock, link=Link(clock, AZURE_WAN, seed=97))
    from dataclasses import replace

    server = SeGShareServer(
        env,
        deployment.ca.public_key,
        stores=StoreSet.over(deployment.backend),
        options=replace(cluster_options(), replica=True),
        attestation_service=deployment.attestation,
        platform=platform,
    )
    if register:
        deployment.attestation.register_platform(
            platform.platform_id, platform.quoting_enclave.attestation_public_key
        )
    return server


class TestJoin:
    def test_build_admits_all(self):
        deployment = small_cluster()
        assert deployment.cluster.membership.ring.members == ["r0", "r1", "r2"]
        assert deployment.cluster.stats()["joins"] == 3

    def test_readmission_is_idempotent(self):
        deployment = small_cluster()
        epoch = deployment.cluster.membership.epoch
        assert not deployment.cluster.admit("r1", deployment.server("r1"))
        assert deployment.cluster.membership.epoch == epoch

    def test_name_collision_rejected(self):
        deployment = small_cluster()
        candidate = make_candidate(deployment)
        with pytest.raises(MembershipError, match="already taken"):
            deployment.cluster.admit("r1", candidate)

    def test_unregistered_platform_rejected_before_key_transfer(self):
        deployment = small_cluster()
        candidate = make_candidate(deployment, register=False)
        with pytest.raises(MembershipError, match="attestation"):
            deployment.cluster.admit("r3", candidate)
        assert not candidate.enclave.ready
        assert "r3" not in deployment.cluster.membership.ring

    def test_join_transfers_key_and_serves(self):
        deployment = small_cluster(replicas=1)
        handler = deployment.server("r0").enclave.handler
        assert (
            handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status
            is Status.OK
        )
        assert handler.put_file("alice", "/d/f", b"payload").status is Status.OK

        candidate = make_candidate(deployment)
        assert not candidate.enclave.ready
        assert deployment.cluster.admit("r1", candidate)
        assert candidate.enclave.ready
        assert read_file(candidate, "/d/f") == b"payload"

    def test_first_member_must_hold_root_key(self):
        deployment = small_cluster(replicas=1)
        deployment.cluster.evict("r0")
        candidate = make_candidate(deployment)
        with pytest.raises(MembershipError, match="root key"):
            deployment.cluster.admit("rX", candidate)


class TestEvict:
    def test_evict_rebalances_to_survivors(self):
        deployment = small_cluster()
        ring = deployment.cluster.membership.ring
        keys = [f"path:d{i}" for i in range(64)]
        before = {key: ring.owner(key) for key in keys}
        deployment.cluster.evict("r2")
        assert ring.members == ["r0", "r1"]
        for key in keys:
            if before[key] != "r2":
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) in {"r0", "r1"}

    def test_evict_unknown_is_noop(self):
        deployment = small_cluster()
        epoch = deployment.cluster.membership.epoch
        deployment.cluster.evict("nope")
        assert deployment.cluster.membership.epoch == epoch
        assert deployment.cluster.stats()["evictions"] == 0


class TestRejoin:
    def test_killed_replica_rejoins_after_restart(self):
        deployment = small_cluster()
        victim = deployment.server("r2")
        handler = deployment.server("r0").enclave.handler
        assert (
            handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status
            is Status.OK
        )
        assert handler.put_file("alice", "/d/f", b"before kill").status is Status.OK

        kill(victim)
        deployment.cluster.evict("r2")
        assert deployment.cluster.membership.ring.members == ["r0", "r1"]

        victim.restart_enclave()  # recovers SK_r from its sealed blob
        assert deployment.cluster.admit("r2", victim)
        assert deployment.cluster.membership.ring.members == ["r0", "r1", "r2"]
        assert read_file(victim, "/d/f") == b"before kill"

    def test_rejoined_replica_anchors_verified_fresh(self):
        deployment = small_cluster()
        victim = deployment.server("r1")
        kill(victim)
        deployment.cluster.evict("r1")
        # Survivors keep mutating while r1 is down.
        handler = deployment.server("r0").enclave.handler
        assert (
            handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status
            is Status.OK
        )
        for i in range(3):
            assert handler.put_file("alice", f"/d/f{i}", b"x").status is Status.OK
        victim.restart_enclave()
        assert deployment.cluster.admit("r1", victim)
        # The join's catch-up gate already verified; prove it holds alone.
        assert victim.handle.call("cluster_verify_anchor") is True


class TestStats:
    def test_cluster_counters_surface_in_server_stats(self):
        deployment = small_cluster()
        root = deployment.server("r0")
        stats = root.stats()
        assert stats["cluster"]["members"] == ["r0", "r1", "r2"]
        assert stats["cluster"]["joins"] == 3
        deployment.cluster.evict("r2")
        assert root.stats()["cluster"]["evictions"] == 1
        assert "cluster" not in deployment.server("r2").stats()
