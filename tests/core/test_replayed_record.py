"""A replayed redo record never rolls the file system back (paper §V-E).

Recovery re-applies a crashed writer's redo record, so a host that keeps
an old record with the old state it describes, and serves both again,
stages a rollback through recovery.  The record is admitted against the
stored anchor before any of it applies: it opened on the anchor, or on
the anchor's one pending successor, or the anchor already names its
roots.  Here the host snapshots every store just before the close of one
write (the snapshot holds that write's sealed record), lets the writer go
on — the next write, then 0 or more later epochs — and writes the
snapshot back over every key except the anchor's.  Recovery, at a restart
or at a cluster takeover, must answer ``RollbackDetected`` and leave the
stores exactly as the host left them, cached or not, for a content write
and for a revocation.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, RollbackDetected
from repro.faults import FaultPlan
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.stores import StoreSet

_CA = CertificateAuthority(key_bits=1024)
_ANCHOR = "\x00rb:anchor"


def _ok(response) -> None:
    assert response.status is Status.OK, response


#: Each kind: (setup, the write whose record the host keeps, the write
#: that supersedes it) as handler calls, and what the kept record would
#: bring back.
_KINDS = {
    "content": (
        lambda h: _ok(h.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",)))),
        lambda h: _ok(h.put_file("alice", "/d/a", b"first")),
        lambda h: _ok(h.put_file("alice", "/d/a", b"second")),
    ),
    "revocation": (
        lambda h: _ok(h.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",)))),
        lambda h: _ok(h.handle("alice", Request(op=Op.ADD_USER, args=("bob", "team")))),
        lambda h: _ok(h.handle("alice", Request(op=Op.RMV_USER, args=("bob", "team")))),
    ),
}


def _state(stores: StoreSet) -> list[dict[str, bytes]]:
    return [{key: store.get(key) for key in store.keys()} for store in (stores.content, stores.group, stores.dedup)]


def _write_back(stores: StoreSet, snapshot: list[dict[str, bytes]]) -> None:
    """The host serves the snapshot again, all but the anchor."""
    for store, kept in zip((stores.content, stores.group, stores.dedup), snapshot):
        for key in list(store.keys()):
            if key not in kept and not key.startswith(_ANCHOR):
                store.delete(key)
        for key, value in kept.items():
            if not key.startswith(_ANCHOR):
                store.put(key, value)


def _stage(server: SeGShareServer, stores: StoreSet, kind: str, later: int) -> None:
    """Run ``kind`` on ``server``, snapshot before the kept write's close,
    and leave the stores as the replaying host does."""
    setup, kept, superseding = _KINDS[kind]
    handler = server.enclave.handler
    setup(handler)
    anchor = server.enclave.engine.anchor
    snapshots = []
    close = anchor.commit_batch

    def snapshot_then_close(opened) -> None:
        snapshots.append(_state(stores))
        close(opened)

    anchor.commit_batch = snapshot_then_close
    kept(handler)
    del anchor.commit_batch
    superseding(handler)
    for i in range(later):
        _ok(handler.put_file("alice", f"/d/later{i}", b"later %d" % i))
    server.enclave.engine.quiesce()
    assert any(key.startswith("\x00journal:redo:") for key in snapshots[0][0])
    _write_back(stores, snapshots[0])


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("later", [0, 3])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_replayed_record_is_refused_at_restart(kind, later, cached):
    options = SeGShareOptions(
        rollback="whole_fs", counter_kind="rote", rollback_buckets=8,
        metadata_cache_bytes=64 * 1024 if cached else None,
    )
    server = SeGShareServer(azure_wan_env(), _CA.public_key, options=options)
    _stage(server, server.stores, kind, later)
    left = _state(server.stores)
    with pytest.raises(RollbackDetected, match="stale redo record"):
        server.restart_enclave()
    assert _state(server.stores) == left


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("later", [0, 3])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_replayed_record_is_refused_at_takeover(kind, later, cached):
    deployment = build_cluster(replicas=2, ca=_CA, cached=cached)
    victim = deployment.server("r1")
    stores = StoreSet.over(deployment.backend)
    deployment.cluster.quiesce()
    _stage(victim, stores, kind, later)
    left = _state(stores)
    with pytest.raises(EnclaveCrashed):
        FaultPlan().attach_platform(victim.platform).kill("the host killed it")
    with pytest.raises(RollbackDetected, match="stale redo record"):
        deployment.cluster.quiesce()  # finds the dead member and runs the takeover
    assert _state(stores) == left
