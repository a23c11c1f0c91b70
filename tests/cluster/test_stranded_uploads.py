"""Recovery is keyed by writer: a crashed replica's stranded upload goes.

Every replica of a shared store names its fresh objects, redo record and
record parts by its own platform id.  So a takeover sweeps exactly the
crashed writer's unreferenced objects, and a restart finishes and sweeps
exactly its own: a live peer's upload still streaming, and an object the
crashed writer committed that the successor has not synced yet, are left
alone.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster, path_affinity
from repro.core.requests import Op, Request, Response, Status
from repro.errors import EnclaveCrashed
from repro.faults import FaultPlan
from repro.pki import CertificateAuthority
from tests.support.dedup import stored_records
from tests.support.explorer import arm

#: One CA for the whole module — RSA key generation dominates setup.
_CA = CertificateAuthority(key_bits=1024)

UPLOAD = bytes(i % 251 for i in range(20 * 1024))  # five chunks
KEPT = b"committed by the crashed replica" * 200
LIVE = bytes(i % 239 for i in range(3 * 4096 + 17))


def world():
    """Three replicas: ``/a/`` and a peer's directory owned by different
    ones, and ``/a/kept`` committed by the owner of ``/a/``."""
    deployment = build_cluster(replicas=3, parallel=True, ca=_CA)
    cluster = deployment.cluster
    ring = cluster.membership.ring
    victim = ring.owner(path_affinity("/a/"))
    peer_dir = next(
        d for d in ("/p/", "/q/", "/r/", "/s/") if ring.owner(path_affinity(d)) != victim
    )
    for directory in ("/a/", peer_dir):
        assert cluster.handle("u0", Request(op=Op.PUT_DIR, args=(directory,))).status is Status.OK
    assert cluster.put_file("u0", "/a/kept", KEPT).status is Status.OK
    peer = deployment.server(ring.owner(path_affinity(peer_dir)))
    return deployment, deployment.server(victim), peer, peer_dir


def object_ids(keys) -> set[str]:
    return {key.partition("\x00")[0] for key in keys if key.startswith("obj:")}


def stored_object_ids(deployment) -> set[str]:
    return object_ids(deployment.server("r0").stores.dedup.keys())


def referenced(server) -> set[str]:
    return {object_id for object_id, _ in stored_records(server.enclave.manager.dedup).values()}


def object_of(server, path: str) -> str:
    manager = server.enclave.manager
    return stored_records(manager.dedup)[manager._pointer_target(path)][0]


def journal_keys_of(deployment, writer: str) -> list[str]:
    return [
        key
        for key in deployment.backend.keys()
        if f"journal:redo:{writer}" in key or f"journal:part:{writer}:" in key
    ]


def objects_written_by(deployment, victim):
    """Wrap the backend: the object ids the victim's request writes, whole
    or by range."""
    backend = deployment.backend
    put, put_range = backend.put, backend.put_range
    written: set[str] = set()

    def record(key: str) -> None:
        if victim.enclave.alive:
            written.update(object_ids([key.removeprefix("dedup/")]))

    def recording(key: str, value: bytes) -> None:
        record(key)
        put(key, value)

    def recording_range(key: str, offset: int, blobs) -> None:
        record(key)
        put_range(key, offset, blobs)

    backend.put, backend.put_range = recording, recording_range
    return written


def record_put(upload) -> int:
    """The index, among the victim's effects, of the redo-record put that
    ``upload(cluster, victim)`` makes: the crash state the named sites
    ``journal:begin`` and ``journal:commit`` stood before."""
    deployment, victim, _, _ = world()
    plan = arm(victim)
    start = len(plan.labels)
    upload(deployment.cluster, victim)
    return next(k for k, label in enumerate(plan.labels[start:]) if "journal:redo" in label)


def upload_through_cluster(cluster, victim) -> None:
    assert cluster.put_file("u0", "/a/f", UPLOAD).status is Status.OK


#: Where each case kills the victim's upload: after its first ranged write
#: (whole, or torn to half its run), or before its redo record.
SITES = ["stream", "torn-range", "journal:begin", "journal:commit"]


@pytest.mark.parametrize("site", SITES)
def test_takeover_sweeps_the_crashed_writers_stranded_upload(site):
    deployment, victim, peer, peer_dir = world()
    cluster = deployment.cluster
    victim_id = victim.platform.platform_id
    successor = cluster.membership.donor(exclude=victim)
    kept_object = object_of(victim, "/a/kept")
    assert kept_object in stored_object_ids(deployment)
    # The successor keeps no view of the records to lag the victim's
    # commits: its sweep reads them as stored.
    assert kept_object in referenced(successor)

    # A live peer's upload is streaming across the crash.
    sink = peer.enclave.handler.open_upload("u0", f"{peer_dir}live")
    sink.write(LIVE[: 2 * 4096 + 5])

    written = objects_written_by(deployment, victim)
    plan = arm(victim)
    if site == "torn-range":
        plan.torn_write(nth=1, store="dedup", op="put_range")
    plan.crash_after_effects(1 if site in ("stream", "torn-range") else record_put(upload_through_cluster))
    upload_through_cluster(cluster, victim)  # through failover
    plan.detach()
    assert cluster.stats()["failovers"] == 1 and not victim.enclave.alive
    assert written, "the victim streamed nothing before it died"

    def check() -> None:
        stored = stored_object_ids(deployment)
        assert not written & stored, f"{site}: the crashed writer's upload was left behind"
        assert not [key for key in deployment.backend.keys() if any(o in key for o in written)]
        assert kept_object in stored
        assert journal_keys_of(deployment, victim_id) == []

    check()
    sink.write(LIVE[2 * 4096 + 5 :])
    assert Response.deserialize(sink.finish()).status is Status.OK
    cluster.quiesce()
    survivor = deployment.server(cluster.membership.ring.members[0])
    survivor.enclave.guard.verify_restored_state()
    manager = survivor.enclave.manager
    assert manager.read_content("/a/f") == UPLOAD
    assert manager.read_content("/a/kept") == KEPT
    assert manager.read_content(f"{peer_dir}live") == LIVE

    # The crashed replica restarts and re-joins: still nothing of its upload.
    victim.restart_enclave()
    name = next(name for name, server in deployment.servers.items() if server is victim)
    assert cluster.admit(name, victim)
    check()
    assert stored_object_ids(deployment) == referenced(victim)


def test_a_restart_before_takeover_finishes_its_own_record():
    """The owner of ``/a/`` dies past its commit point and restarts before
    the front door noticed: its boot re-applies its own record and sweeps
    only its own objects, so the later takeover finds nothing to do."""
    deployment, victim, peer, peer_dir = world()
    cluster = deployment.cluster
    cluster.quiesce()
    victim_id = victim.platform.platform_id
    sink = peer.enclave.handler.open_upload("u0", f"{peer_dir}live")
    sink.write(LIVE[: 2 * 4096 + 5])

    def upload(cluster, victim) -> None:
        victim.enclave.handler.put_file("u0", "/a/f", UPLOAD)

    committed = record_put(upload) + 1
    plan = arm(victim).crash_after_effects(committed)
    with pytest.raises(EnclaveCrashed):
        upload(cluster, victim)
    plan.detach()
    assert journal_keys_of(deployment, victim_id) != []

    victim.restart_enclave()
    assert journal_keys_of(deployment, victim_id) == []
    successor = cluster.membership.donor(exclude=victim)
    assert successor.handle.call("cluster_takeover_recover", victim_id) is False

    sink.write(LIVE[2 * 4096 + 5 :])
    assert Response.deserialize(sink.finish()).status is Status.OK
    for server in (victim, successor, peer):
        server.handle.call("group_commit_quiesce")
    for server in (victim, successor):
        server.enclave.guard.verify_restored_state()
        manager = server.enclave.manager
        assert manager.read_content("/a/f") == UPLOAD
        assert manager.read_content("/a/kept") == KEPT
        assert manager.read_content(f"{peer_dir}live") == LIVE
    assert stored_object_ids(deployment) == referenced(successor)


def test_takeover_keeps_an_object_the_successor_still_reads():
    """The successor streams the crashed writer's object and releases it
    mid-stream (its reclaim waits for the reader): the takeover's sweep
    leaves it (``purge`` would refuse an open file), and the reclaim
    deletes it once the stream ends."""
    big = bytes(i % 253 for i in range(20 * 4096 + 3))  # more than one read group
    deployment, victim, _, _ = world()
    cluster = deployment.cluster
    assert cluster.put_file("u0", "/a/big", big).status is Status.OK
    cluster.quiesce()
    successor = cluster.membership.donor(exclude=victim)
    released = object_of(victim, "/a/big")
    handler = successor.enclave.handler
    stream = handler.handle("u0", Request(op=Op.GET, args=("/a/big",)))
    chunks = iter(stream.chunks)
    first = next(chunks)
    assert handler.put_file("u0", "/a/big", b"replaced").status is Status.OK
    successor.handle.call("group_commit_quiesce")
    with pytest.raises(EnclaveCrashed):
        FaultPlan().attach_platform(victim.platform).kill("the host killed it")
    with pytest.raises(EnclaveCrashed):
        victim.handle.call("runtime_stats")
    cluster.quiesce()  # finds the dead member and runs the takeover
    assert cluster.stats()["failovers"] == 1
    assert released in stored_object_ids(deployment)
    assert first + b"".join(chunks) == big
    assert released not in stored_object_ids(deployment)
