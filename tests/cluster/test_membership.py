"""Membership: attested join, catch-up gate, eviction, rejoin."""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.core.requests import Op, Request, Status
from repro.errors import MembershipError
from repro.pki import CertificateAuthority

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
        candidate = deployment.new_server()
        with pytest.raises(MembershipError, match="already taken"):
            deployment.cluster.admit("r1", candidate)

    def test_boardless_cluster_refuses_a_cached_candidate(self):
        """Without a coherence log a peer's write would leave a cached
        member serving stale plaintext: refused before any key moves."""
        deployment = build_cluster(replicas=1, ca=_CA, cached=False)
        cached = replace(deployment.options, metadata_cache_bytes=64 * 1024)
        candidate = deployment.new_server(options=cached)
        with pytest.raises(MembershipError, match="no coherence log"):
            deployment.cluster.admit("r1", candidate)
        assert not candidate.enclave.ready
        assert deployment.cluster.membership.ring.members == ["r0"]

    def test_unregistered_platform_rejected_before_key_transfer(self):
        deployment = small_cluster()
        candidate = deployment.new_server(register=False)
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

        candidate = deployment.new_server()
        assert not candidate.enclave.ready
        assert deployment.cluster.admit("r1", candidate)
        assert candidate.enclave.ready
        assert read_file(candidate, "/d/f") == b"payload"

    def test_first_member_must_hold_root_key(self):
        deployment = small_cluster(replicas=1)
        deployment.cluster.evict("r0")
        candidate = deployment.new_server()
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


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_members_writing_in_turn_open_on_each_others_anchor(cached):
    """Each epoch opens on the latest anchor record whoever wrote it: a
    cached member forgets its own once the coherence sync shows a peer's
    close, an uncached one reads the record at every open."""
    deployment = build_cluster(replicas=2, ca=_CA, cached=cached)
    servers = [deployment.server("r0"), deployment.server("r1")]
    handler = servers[0].enclave.handler
    assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status is Status.OK
    for turn in range(4):
        writer = servers[turn % 2].enclave.handler
        assert writer.put_file("alice", f"/d/f{turn}", b"turn %d" % turn).status is Status.OK
    for server in servers:
        server.enclave.guard.anchor.verify_fresh()
        assert read_file(server, "/d/f3") == b"turn 3"
