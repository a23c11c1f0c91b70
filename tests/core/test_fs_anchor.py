"""The one file-system anchor: both roots and one counter in one record.

The host holds every stored object, so it can put back an older version of
any of them.  Each attack below restores part of the state from before a
revocation — the group store's node, the whole group store, the anchor, or
the group store with the anchor — and each ends in a typed
``RollbackDetected``: the revoked member never reads again, and no later
epoch, however little it touches, re-anchors the older group state.  Run
cached (the host's swap lands after an eviction) and uncached.
"""

from __future__ import annotations

import pytest

from repro.core.coherence import CoherenceManager
from repro.core.requests import Op, Request, Response, Status
from repro.core.rollback import FileSystemAnchor, FlatStoreGuard, RollbackGuard
from repro.errors import EnclaveCrashed, RollbackDetected
from repro.netsim.coherence import CoherenceBoard
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.counters import RoteCounterService
from repro.storage.stores import StoreSet
from tests.core.conftest import ROOT_KEY, build_world
from tests.core.test_crash_recovery import build_server
from tests.support.explorer import under_plan
from tests.support.requests import request

_ANCHOR = "\x00rb:anchor"
_GROUP_NODE = "\x00rbg:node"


def _snapshot(store) -> dict[str, bytes]:
    return {key: store.get(key) for key in store.keys()}


def _put_back(store, snapshot: dict[str, bytes]) -> None:
    for key, value in snapshot.items():
        store.put(key, value)


def _bob_reads(handler) -> Status | str:
    """OK, or the status of the failure bob's GET of /doc answered —
    "rollback" for a typed integrity violation."""
    response = handler.handle("bob", Request(op=Op.GET, args=("/doc",)))
    if not isinstance(response, Response):
        return Status.OK  # a stream: the content was served
    if response.status is Status.ERROR and "integrity violation" in response.message:
        return "rollback"
    return response.status


def _revoked_world(cache_bytes):
    """bob reads /doc through group eng; the stores are snapshotted; bob is
    revoked.  The server's effects are counted from its start."""
    server, _ = under_plan(lambda stores: build_server(stores, metadata_cache_bytes=cache_bytes))
    handler = server.enclave.handler
    assert handler.put_file("alice", "/doc", b"shared").status is Status.OK
    request(handler, "alice", Op.ADD_USER, "bob", "eng")
    request(handler, "alice", Op.SET_PERM, "/doc", "eng", "r")
    assert _bob_reads(server.enclave.handler) is Status.OK
    before = _snapshot(server.stores.content), _snapshot(server.stores.group)
    request(handler, "alice", Op.RMV_USER, "bob", "eng")
    assert _bob_reads(server.enclave.handler) is Status.DENIED
    return server, before


def _objects(snapshot: dict[str, bytes], name: str) -> dict[str, bytes]:
    """The stored values of one protected file (its meta node, any data)."""
    return {key: value for key, value in snapshot.items() if key.startswith(name + "\x00")}


ATTACKS = {
    "group-node": lambda content, group: ({}, _objects(group, _GROUP_NODE)),
    "group-store": lambda content, group: ({}, group),
    "anchor": lambda content, group: (_objects(content, _ANCHOR), {}),
    "group-store-and-anchor": lambda content, group: (_objects(content, _ANCHOR), group),
}


def _attack(server, before, attack: str) -> None:
    content, group = ATTACKS[attack](*before)
    _put_back(server.stores.content, content)
    _put_back(server.stores.group, group)
    # A cached deployment reads storage again once its entries are gone.
    server.enclave.engine.drop_derived_state()


@pytest.mark.parametrize("cache_bytes", [None, 512 * 1024], ids=["uncached", "cached"])
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_an_older_group_store_or_anchor_is_a_rollback(attack, cache_bytes):
    server, before = _revoked_world(cache_bytes)
    _attack(server, before, attack)
    assert _bob_reads(server.enclave.handler) == "rollback"
    # An epoch that touches only the content store keeps the group root
    # from a fresh anchor only: with the older anchor back it refuses to
    # commit, and otherwise it re-anchors the revoked state.
    put = server.enclave.handler.put_file("alice", "/other", b"x")
    assert put.status is (Status.ERROR if "anchor" in attack else Status.OK)
    server.enclave.engine.drop_derived_state()
    assert _bob_reads(server.enclave.handler) == "rollback"


def _close_steps() -> list[int]:
    """A content-only close's node and anchor puts, by effect index: the
    crash states the old ``anchor:`` sites stood before."""
    server, _ = _revoked_world(None)
    plan = server.platform.fault_plan
    start = len(plan.labels)
    server.enclave.handler.put_file("alice", "/other", b"x")
    guard_puts = ("content:put '\\x00rb:node", "content:put '\\x00rb:anchor")
    return [k for k, label in enumerate(plan.labels[start:]) if label.startswith(guard_puts)]


def _crash_in_close(server, step: int) -> None:
    plan = server.platform.fault_plan
    plan.crash_after_effects(_close_steps()[step - 1])
    with pytest.raises(EnclaveCrashed):
        server.enclave.handler.put_file("alice", "/other", b"x")
    plan.detach()


@pytest.mark.parametrize("cache_bytes", [None, 512 * 1024], ids=["uncached", "cached"])
def test_a_recovery_never_re_anchors_an_older_group_store(cache_bytes):
    """The host crashes the enclave inside a content-only close and puts the
    pre-revocation group store and anchor back: the redo record names the
    revoked group root, so the restart refuses instead of re-anchoring."""
    server, before = _revoked_world(cache_bytes)
    _crash_in_close(server, 1)
    _put_back(server.stores.content, _objects(before[0], _ANCHOR))
    _put_back(server.stores.group, before[1])
    with pytest.raises(RollbackDetected):
        server.restart_enclave()


@pytest.mark.parametrize("cache_bytes", [None, 512 * 1024], ids=["uncached", "cached"])
def test_a_restart_never_bootstraps_a_deleted_group_node(cache_bytes):
    """The host deletes the group node and puts the pre-revocation member
    lists back: the anchor names the group root, so the restart refuses to
    bootstrap a node from what the host serves, and bob stays out."""
    server, before = _revoked_world(cache_bytes)
    group = server.stores.group
    for key in _objects(_snapshot(group), _GROUP_NODE):
        group.delete(key)
    _put_back(group, {key: value for key, value in before[1].items() if not key.startswith(_GROUP_NODE)})
    with pytest.raises(RollbackDetected, match="node is missing but anchored"):
        server.restart_enclave()


@pytest.mark.parametrize("cache_bytes", [None, 512 * 1024], ids=["uncached", "cached"])
def test_a_deleted_anchor_refuses_the_restart_and_writes_nothing(cache_bytes):
    """Past a first start's counter, a missing anchor is a removal, not a
    first start: the restart refuses before it writes, so once the host
    puts the anchor back the next restart serves the revoked state."""
    server, _ = _revoked_world(cache_bytes)
    content = server.stores.content
    anchor = _objects(_snapshot(content), _ANCHOR)
    stored = _snapshot(content), _snapshot(server.stores.group)
    for key in anchor:
        content.delete(key)
    with pytest.raises(RollbackDetected, match="anchor is missing"):
        server.restart_enclave()
    _put_back(content, anchor)
    assert (_snapshot(content), _snapshot(server.stores.group)) == stored
    server.restart_enclave()
    enclave = server.enclave
    enclave.guard.verify_restored_state()
    enclave.group_guard.verify_restored_state()
    assert _bob_reads(enclave.handler) is Status.DENIED
    assert enclave.handler.put_file("alice", "/other", b"x").status is Status.OK


@pytest.mark.parametrize("step", [1, 2])
def test_a_crash_in_a_one_store_close_recovers_both_stores(step):
    """A content-only close puts the root node, then counts and puts the
    anchor; a crash before each recovers, the group root kept from the
    anchor the epoch opened on — also one increment behind it."""
    server, _ = _revoked_world(None)
    _crash_in_close(server, step)
    server.restart_enclave()
    enclave = server.enclave
    enclave.guard.verify_restored_state()
    enclave.group_guard.verify_restored_state()
    enclave.guard.anchor.verify_fresh()
    assert enclave.manager.read_content("/other") == b"x"
    assert _bob_reads(server.enclave.handler) is Status.DENIED


def test_a_replica_keeps_the_group_root_only_from_a_fresh_anchor():
    """Two cached replicas over one store and one counter.  The peer
    revokes; the host puts the older group store and anchor back; this
    replica's next epoch touches only the content store and hits its cache
    for every read, so nothing verified meets the older anchor — but its
    close must take the group root from the stored anchor, whose counter
    is not the TEE's: it refuses, and bob stays out."""
    stores = StoreSet.in_memory()
    board = CoherenceBoard(capacity=64)
    replicas = [build_world(stores=stores, cache_bytes=512 * 1024) for _ in range(2)]
    counter = RoteCounterService(replicas[0].enclave.platform.clock, SgxCostModel())
    for world in replicas:
        engine = world.manager.engine
        engine.attach_coherence(CoherenceManager(board, ROOT_KEY, engine))
        anchor = FileSystemAnchor(world.manager, world.enclave, world.locks, counter)
        world.manager.content.guard = RollbackGuard(world.manager, ROOT_KEY, anchor, buckets=8)
        world.manager.group.guard = FlatStoreGuard(world.manager, ROOT_KEY, anchor, buckets=8)
        anchor.boot()
    peer, this = replicas
    assert peer.handler.put_file("alice", "/doc", b"shared").status is Status.OK
    request(peer.handler, "alice", Op.ADD_USER, "bob", "eng")
    request(peer.handler, "alice", Op.SET_PERM, "/doc", "eng", "r")
    assert this.handler.put_file("alice", "/warm", b"w").status is Status.OK
    assert _bob_reads(this.handler) is Status.OK
    before = _snapshot(stores.content), _snapshot(stores.group)
    request(peer.handler, "alice", Op.RMV_USER, "bob", "eng")
    _put_back(stores.content, _objects(before[0], _ANCHOR))
    _put_back(stores.group, before[1])
    this.handler.put_file("alice", "/other", b"x")  # its close refuses; the member stands
    this.manager.engine.drop_derived_state()
    assert _bob_reads(this.handler) == "rollback"
