"""Backend-specific behavior of the pluggable authorization layer.

Where test_authz_invariance pins the backends to *identical decisions*,
this module tests what is allowed to differ: the per-backend counters
surfaced through ``stats()``, the IBBE backend's re-key/reconcile
economics (the O(|group|) revocation cost the head-to-head benchmark
measures), backend selection plumbing (options validation, cluster
passthrough), and bootstrap-vs-incremental equivalence.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.core.enclave_app import SeGShareOptions
from repro.core.model import Permission, default_group
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority

BACKENDS = ("enclave_acl", "ibbe")

_CA = CertificateAuthority(key_bits=1024)


def build_server(backend: str) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        authz_backend=backend,
    )
    return SeGShareServer(azure_wan_env(), _CA.public_key, options=options)


def ok(response) -> None:
    assert response.status is Status.OK, response


def handle(world, user, op, *args):
    return world.handler.handle(user, Request(op=op, args=tuple(args)))


class TestBackendSelection:
    def test_unknown_backend_rejected_at_option_time(self):
        with pytest.raises(ValueError, match="bad authz backend"):
            SeGShareOptions(authz_backend="nope")

    def test_build_backend_rejects_unknown_name(self, make_world):
        from repro.core.authz import build_backend

        world = make_world()
        with pytest.raises(ValueError):
            build_backend("nope", world.manager, world.enclave)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_name_the_backend(self, backend):
        server = build_server(backend)
        authz = server.stats()["authz"]
        assert authz["backend"] == backend

    def test_cluster_passthrough(self):
        deployment = build_cluster(replicas=2, authz_backend="ibbe")
        for name in ("r0", "r1"):
            assert deployment.server(name).enclave.access.name == "ibbe"
        assert deployment.server("r0").stats()["authz"]["backend"] == "ibbe"


class TestCounters:
    @pytest.fixture(params=BACKENDS)
    def world(self, make_world, request):
        return make_world(authz=request.param)

    def test_membership_counters_common_to_both(self, world):
        ok(handle(world, "alice", Op.ADD_USER, "bob", "team"))
        ok(handle(world, "alice", Op.ADD_USER, "carol", "team"))
        ok(handle(world, "alice", Op.RMV_USER, "bob", "team"))
        counters = world.access.counters()
        # create(+alice) + 2 adds + 1 remove.
        assert counters["membership_updates"] == 4
        assert counters["revocations"] == 1

    def test_crypto_counters_differ(self, world):
        ok(world.handler.put_file("alice", "/f", b"x" * 64))
        ok(handle(world, "alice", Op.ADD_USER, "bob", "team"))
        ok(handle(world, "alice", Op.SET_PERM, "/f", "team", "r"))
        ok(handle(world, "alice", Op.RMV_USER, "bob", "team"))
        counters = world.access.counters()
        if world.access.name == "ibbe":
            assert counters["rekeys"] == 1
            assert counters["member_envelopes_wrapped"] >= 2
            assert counters["file_envelopes_wrapped"] >= 1
        else:
            # The ACL backend never touches an envelope: revocation is
            # one member-list write, the paper's O(1)-metadata claim.
            assert counters["rekeys"] == 0
            assert counters["member_envelopes_wrapped"] == 0
            assert counters["file_envelopes_wrapped"] == 0
            assert counters["bytes_reencrypted"] == 0

    def test_counters_flow_into_server_stats(self):
        server = build_server("ibbe")
        handler = server.enclave.handler
        ok(handler.put_file("alice", "/f", b"payload"))
        ok(handler.handle("alice", Request(op=Op.ADD_USER, args=("bob", "team"))))
        ok(handler.handle("alice", Request(op=Op.RMV_USER, args=("bob", "team"))))
        authz = server.stats()["authz"]
        assert authz["backend"] == "ibbe"
        assert authz["rekeys"] == 1
        assert authz["membership_updates"] == 3


class TestReconcile:
    def test_acl_reconcile_is_a_noop(self, make_world):
        world = make_world(authz="enclave_acl")
        assert world.access.reconcile() == {}

    def test_revocation_debt_settled_once(self, make_world):
        world = make_world(authz="ibbe")
        content = b"the quick brown fox" * 10
        ok(world.handler.put_file("alice", "/f", content))
        ok(handle(world, "alice", Op.ADD_USER, "bob", "team"))
        ok(handle(world, "alice", Op.ADD_USER, "carol", "team"))
        ok(handle(world, "alice", Op.SET_PERM, "/f", "team", "r"))
        ok(handle(world, "alice", Op.RMV_USER, "bob", "team"))

        report = world.access.reconcile()
        assert report["files_rotated"] == 1
        assert report["envelopes_rewrapped"] >= 1
        assert report["bytes_reencrypted"] == len(content)
        # Idempotent: the debt is paid, a second pass finds nothing.
        assert world.access.reconcile() == {
            "files_rotated": 0,
            "envelopes_rewrapped": 0,
            "bytes_reencrypted": 0,
        }
        # Rotation is invisible to the surviving member.
        assert world.access.auth_f("carol", Permission.READ, "/f")
        assert not world.access.auth_f("bob", Permission.READ, "/f")
        result = world.handler.get("carol", "/f")
        assert b"".join(result.chunks) == content

    def test_grant_removal_marks_file_stale(self, make_world):
        world = make_world(authz="ibbe")
        ok(world.handler.put_file("alice", "/f", b"z" * 32))
        ok(handle(world, "alice", Op.ADD_USER, "bob", "team"))
        ok(handle(world, "alice", Op.SET_PERM, "/f", "team", "r"))
        ok(handle(world, "alice", Op.SET_PERM, "/f", "team", ""))
        report = world.access.reconcile()
        assert report["files_rotated"] == 1


class TestBootstrapEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bootstrap_matches_incremental_adds(self, make_world, backend):
        bulk = make_world(authz=backend)
        bulk.access.bootstrap_group("alice", "team", ["bob", "carol"])
        incremental = make_world(authz=backend)
        ok(handle(incremental, "alice", Op.ADD_USER, "bob", "team"))
        ok(handle(incremental, "alice", Op.ADD_USER, "carol", "team"))

        for world in (bulk, incremental):
            assert world.access.exists_g("team")
            assert world.access.auth_g("alice", "team")
            for user in ("alice", "bob", "carol"):
                assert "team" in world.access.user_groups(user), (world, user)
        assert sorted(bulk.access.known_users()) == sorted(
            incremental.access.known_users()
        )
        # Bulk seeding still works as a base for normal request traffic.
        ok(bulk.handler.put_file("alice", "/f", b"x"))
        ok(handle(bulk, "alice", Op.SET_PERM, "/f", "team", "r"))
        assert bulk.access.auth_f("bob", Permission.READ, "/f")


class TestRevocationCost:
    """The head-to-head claim, in miniature: on the virtual clock, ACL
    revocation cost is flat in group size while IBBE's grows with it."""

    SMALL, LARGE = 48, 192

    @staticmethod
    def _revoke_time(backend: str, size: int) -> float:
        server = build_server(backend)
        members = [f"m{i}" for i in range(size)]
        server.enclave.access.bootstrap_group("admin", "team", members)
        handler = server.enclave.handler
        clock = server.env.clock
        start = clock.now()
        ok(handler.handle("admin", Request(op=Op.RMV_USER, args=("m1", "team"))))
        return clock.now() - start

    def test_acl_revocation_flat_ibbe_grows(self):
        acl_small = self._revoke_time("enclave_acl", self.SMALL)
        acl_large = self._revoke_time("enclave_acl", self.LARGE)
        ibbe_small = self._revoke_time("ibbe", self.SMALL)
        ibbe_large = self._revoke_time("ibbe", self.LARGE)
        # ACL: one member-list write regardless of group size.
        assert acl_large <= acl_small * 1.5, (acl_small, acl_large)
        # IBBE: an envelope per remaining member — 4x the group, at
        # least ~2x the time even with the fixed per-request floor.
        assert ibbe_large >= ibbe_small * 2, (ibbe_small, ibbe_large)
        assert ibbe_large > acl_large, (acl_large, ibbe_large)
