"""End-to-end retry behaviour: client backoff over injected faults."""

import pytest

from repro.cluster import build_cluster
from repro.core.enclave_app import SeGShareOptions
from repro.core.model import default_group
from repro.core.server import deploy
from repro.core.requests import Op, Request, Response, Status
from repro.errors import (
    FaultError,
    NetworkError,
    RequestError,
    RetryPolicy,
    ServiceUnavailableError,
)
from repro.faults import FaultPlan, faulty_env, faulty_stores
from repro.netsim import azure_wan_env
from repro.storage.stores import StoreSet
from repro.webdav import HttpRequest, Method

POLICY = RetryPolicy(attempts=5, base_delay=0.05, max_delay=1.0)


def flaky_deployment(plan: FaultPlan, **deploy_kwargs):
    stores = faulty_stores(StoreSet.in_memory(), plan)
    return deploy(env=azure_wan_env(), stores=stores, **deploy_kwargs)


GUARDED = SeGShareOptions(rollback="whole_fs", counter_kind="rote")


def _handle_door(enclave, alice, path, op):
    # A GET writes nothing, so the put fault needs a mutating opcode.
    args = (path,) if op == "get" else (path, default_group("bob"), "r")
    request = Request(op=Op.GET if op == "get" else Op.SET_PERM, args=args)
    result = enclave.handler.handle("alice", request)
    assert isinstance(result, Response)
    return result.status


def _put_file_door(enclave, alice, path, op):
    return enclave.handler.put_file("alice", path, b"v2").status


def _native_door(enclave, alice, path, op):
    with pytest.raises(FaultError):  # how the client reports Status.RETRY
        alice.upload(path, b"v2")
    return Status.RETRY


def _webdav_door(enclave, alice, path, op):
    reply = enclave.webdav.dispatch("alice", HttpRequest(Method.PUT, path, body=b"v2"))
    return {503: Status.RETRY, 201: Status.OK}[reply.status]


DOORS = [_handle_door, _put_file_door, _native_door, _webdav_door]
#: (faulted op, path): "/d/f" reads its parent's ACL to authorize, so the
#: get fault hits the upload's OPEN phase; "/f" under the root reads
#: nothing until the commit phase; the first put is the journal marker.
FAULTS = [("get", "/d/f"), ("get", "/f"), ("put", "/d/f")]


class TestTransientStorageFaults:
    def _world(self, user_key, retry=None):
        plan = FaultPlan()
        deployment = flaky_deployment(plan, options=GUARDED)
        alice = deployment.connect(
            deployment.user_identity("alice", key=user_key), retry=retry
        )
        alice.mkdir("/d/")
        for path in ("/d/f", "/f"):
            alice.upload(path, b"v1")
        return plan, deployment, alice

    @pytest.mark.parametrize("op,path", FAULTS)
    @pytest.mark.parametrize("door", DOORS)
    def test_every_door_answers_one_transient_fault_with_retry(
        self, user_key, door, op, path
    ):
        plan, deployment, alice = self._world(user_key)
        plan.fail_nth(nth=1, op=op, store="content")
        assert door(deployment.server.enclave, alice, path, op) is Status.RETRY
        # The fault was transient and nothing was torn: v1 is intact and
        # the very next upload goes through.
        assert alice.download(path) == b"v1"
        alice.upload(path, b"v2")
        assert alice.download(path) == b"v2"

    @pytest.mark.parametrize("op,path", FAULTS)
    def test_policy_client_completes_the_upload(self, user_key, op, path):
        plan, deployment, alice = self._world(user_key, retry=POLICY)
        plan.fail_nth(nth=1, op=op, store="content")
        alice.upload(path, b"v2")
        assert alice.download(path) == b"v2"
        assert deployment.env.clock.accounts().get("client-backoff", 0.0) > 0.0

    def test_fault_on_a_metadata_node_get_is_retried(self, user_key):
        """The protected FS reads a metadata node with one get and no exists
        probe.  A fault on that get reaches the handler as FaultError, so the
        request is answered RETRY and a policy client's retry completes it;
        a file that is really missing is still no file, never RETRY."""
        plan, deployment, alice = self._world(user_key)
        handler = deployment.server.enclave.handler
        rule = plan.fail_nth(nth=1, op="get", store="content", key="/d/f\x00meta")._store_rules[-1]
        response = handler.handle("alice", Request(op=Op.GET, args=("/d/f",)))
        assert rule.fired == 1 and response.status is Status.RETRY
        assert alice.download("/d/f") == b"v1"
        # Missing is answered as the access model answers it, opaquely.
        missing = handler.handle("alice", Request(op=Op.GET, args=("/d/missing",)))
        assert missing.status is Status.DENIED

        plan, deployment, alice = self._world(user_key, retry=POLICY)
        plan.fail_nth(nth=1, op="get", store="content", key="/d/f\x00meta")
        assert alice.download("/d/f") == b"v1"
        assert deployment.env.clock.accounts().get("client-backoff", 0.0) > 0.0

    def test_rolled_back_acl_is_an_integrity_violation_at_every_door(self, user_key):
        plan, deployment, alice = self._world(user_key)
        enclave = deployment.server.enclave
        content = deployment.server.stores.content.inner
        stale = {k: v for k, v in content.snapshot().items() if k.startswith("/d.acl")}
        alice.set_permission("/d/", default_group("bob"), "rw")
        for key, value in stale.items():  # the host replays the old /d/ ACL
            content.put(key, value)
        get = enclave.handler.handle("alice", Request(op=Op.GET, args=("/d/",)))
        put = enclave.handler.put_file("alice", "/d/f", b"v2")
        for response in (get, put):
            assert response.status is Status.ERROR
            assert response.message.startswith("integrity violation:")
        with pytest.raises(RequestError, match="^integrity violation:"):
            alice.upload("/d/f", b"v2")

    def test_client_retries_through_transient_fault(self, user_key):
        plan = FaultPlan()
        deployment = flaky_deployment(
            plan,
            options=GUARDED,
        )
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(identity, retry=POLICY)
        alice.upload("/f", b"v1")

        # Each rule fires on the first matching put it observes — the
        # journal marker write of one attempt — so three rules fail three
        # consecutive attempts with RETRY; the client's backoff wins.
        plan.fail_nth(nth=1, op="put", store="content")
        plan.fail_nth(nth=1, op="put", store="content")
        plan.fail_nth(nth=1, op="put", store="content")
        before = deployment.env.clock.now()
        alice.upload("/f", b"v2")
        assert alice.download("/f") == b"v2"
        # The retries charged backoff delays to the simulated clock.
        accounts = deployment.env.clock.accounts()
        assert accounts.get("client-backoff", 0.0) > 0.0
        assert deployment.env.clock.now() > before

    def test_without_policy_fault_surfaces_as_error(self, user_key):
        plan = FaultPlan()
        deployment = flaky_deployment(
            plan,
            options=GUARDED,
        )
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(identity)  # no retry policy
        alice.upload("/f", b"v1")
        plan.fail_nth(nth=1, op="put", store="content")
        with pytest.raises(FaultError):
            alice.upload("/f", b"v2")
        # The failed mutation was rolled back server-side.
        assert alice.download("/f") == b"v1"

    def test_exhausted_retries_surface_the_fault(self, user_key):
        plan = FaultPlan()
        deployment = flaky_deployment(
            plan,
            options=GUARDED,
        )
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(
            identity, retry=RetryPolicy(attempts=2, base_delay=0.01)
        )
        alice.upload("/f", b"v1")
        plan.fail_nth(nth=1, op="put", store="content")
        plan.fail_nth(nth=1, op="put", store="content")
        with pytest.raises(FaultError):
            alice.upload("/f", b"v2")
        # Every fault hit before the first mutation, so nothing was torn
        # and the journal was never poisoned: the next attempt succeeds.
        alice.upload("/f", b"v2")
        assert alice.download("/f") == b"v2"

    def test_rollback_resyncs_dedup_index(self, user_key):
        """A rolled-back batch must not leave a refcount the enclave reads
        ahead of the stored record (refcounts would drift and a later
        remove would reclaim a live object — or chase a dead one).
        """
        plan = FaultPlan()
        deployment = flaky_deployment(
            plan,
            options=SeGShareOptions(
                rollback="whole_fs",
                counter_kind="rote",
                enable_dedup=True,
            ),
        )
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(identity, retry=POLICY)
        shared = b"shared corpus" * 30
        alice.upload("/a", shared)
        dedup = deployment.server.enclave.manager.dedup
        h = dedup.h_name(shared)
        assert dedup.refcount(h) == 1

        # Control run: count the content-store puts one second-reference
        # upload makes, so the fault below can land near the end of the
        # batch — after the dedup record has adopted the new reference.
        sentinel = plan.fail_nth(nth=10**9, op="put", store="content")
        before = sentinel._store_rules[-1].seen
        alice.upload("/b", shared)
        puts_per_upload = sentinel._store_rules[-1].seen - before
        assert dedup.refcount(h) == 2
        alice.remove("/b")
        assert dedup.refcount(h) == 1

        # Fail the pointer-file write: the record already says refcount 2
        # in the span's buffers; the rollback drops them, so the stored
        # refcount 1 is what the client's retry reads.
        plan.fail_nth(nth=puts_per_upload - 4, op="put", store="content")
        alice.upload("/b", shared)
        assert alice.download("/b") == shared
        assert dedup.refcount(h) == 2
        alice.remove("/b")
        assert dedup.refcount(h) == 1
        assert alice.download("/a") == shared


class TestDroppedRecords:
    def test_client_resends_dropped_record(self, user_key):
        plan = FaultPlan()
        deployment = deploy(env=faulty_env(plan))
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(identity, retry=POLICY)
        alice.upload("/f", b"payload")
        # Drop the next two client→server sends; the channel re-sends the
        # identical ciphertext so TLS sequence numbers stay aligned.
        plan.drop_message(nth=1, direction="up")
        plan.drop_message(nth=2, direction="up")
        assert alice.download("/f") == b"payload"

    def test_drop_without_policy_raises(self, user_key):
        plan = FaultPlan()
        deployment = deploy(env=faulty_env(plan))
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(identity)
        alice.upload("/f", b"payload")
        plan.drop_message(nth=1, direction="up")
        with pytest.raises(NetworkError):
            alice.download("/f")


class TestUnavailability:
    def test_quorum_loss_raises_service_unavailable(self, user_key):
        deployment = deploy(
            env=azure_wan_env(),
            options=GUARDED,
        )
        identity = deployment.user_identity("alice", key=user_key)
        alice = deployment.connect(identity, retry=POLICY)
        alice.upload("/f", b"v1")

        counter = getattr(deployment.server.platform, "_segshare_counter_rote")
        counter.set_replica_up(0, False)
        counter.set_replica_up(1, False)
        # Reads still work (degraded); writes raise the typed error without
        # burning retries (UNAVAILABLE is not RETRY).
        assert alice.download("/f") == b"v1"
        with pytest.raises(ServiceUnavailableError):
            alice.upload("/f", b"v2")
        counter.set_replica_up(0, True)
        counter.set_replica_up(1, True)
        alice.upload("/f", b"v2")
        assert alice.download("/f") == b"v2"


class TestReplicationRetry:
    """The join's key exchange (``transfer_root_key``) retries transient
    faults on the candidate."""

    def test_transfer_root_key_retries_transient_faults(self):
        plan = FaultPlan()
        deployment = build_cluster(replicas=1)
        candidate = deployment.new_server(faulty_stores(StoreSet.over(deployment.backend), plan))
        # Fail the sealed-root-key put of the exchange's final step once.
        plan.fail_nth(nth=1, op="put", store="content")
        assert deployment.cluster.admit("r1", candidate, retry=POLICY)
        assert candidate.enclave.ready

    def test_transfer_without_retry_propagates(self):
        plan = FaultPlan()
        deployment = build_cluster(replicas=1)
        candidate = deployment.new_server(faulty_stores(StoreSet.over(deployment.backend), plan))
        plan.fail_nth(nth=1, op="put", store="content")
        with pytest.raises(FaultError):
            deployment.cluster.admit("r1", candidate)
        assert deployment.cluster.membership.ring.members == ["r0"]
