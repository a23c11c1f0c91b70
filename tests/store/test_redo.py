"""Redo commit: a member's writes reach the store only through its record.

Three groups of checks:

* **redo invariants**, through a counting store: a commit reads nothing
  it then overwrites or deletes, a member that fails after its writes
  leaves every stored key byte-identical and writes nothing more, the
  store operations of its abort do not depend on how many objects are
  stored, and in a shared epoch the other members' commits stand;
* **a hostile host on the record**: at restart a record replayed from an
  older epoch, transplanted from another deployment, truncated or with a
  bit flipped is refused with a typed error and never applied;
* **spilled buffers**: a span past its buffer budget seals the overflow
  into record parts, still readable in the span, and writes through
  nothing before its commit point.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.bench.concurrency import parallel_env
from repro.core.enclave_app import SeGShareOptions
from repro.core.file_manager import TrustedFileManager
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, RollbackDetected, StorageError
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.backends import InMemoryStore, UntrustedStore
from repro.storage.stores import StoreSet
from repro.store import engine as engine_module
from tests.support.dedup import object_count
from tests.support.explorer import under_plan
from tests.support.platform import engine_for, loaded_enclave

#: One CA for the whole module — its RSA key generation dominates setup.
_CA = CertificateAuthority(key_bits=1024)

_RECORD = "\x00journal:redo:"


class CountingStore(UntrustedStore):
    """A store that logs every operation as ``(op, key)``."""

    def __init__(self) -> None:
        self.inner = InMemoryStore()
        self.log: list[tuple[str, str]] = []

    def put(self, key: str, value: bytes) -> None:
        self.log.append(("put", key))
        self.inner.put(key, value)

    def get(self, key: str) -> bytes:
        self.log.append(("get", key))
        return self.inner.get(key)

    def put_range(self, key: str, offset: int, blobs) -> None:
        self.log.append(("put_range", key))
        self.inner.put_range(key, offset, blobs)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        self.log.append(("get_range", key))
        return self.inner.get_range(key, offset, length)

    def delete(self, key: str) -> None:
        self.log.append(("delete", key))
        self.inner.delete(key)

    def exists(self, key: str) -> bool:
        self.log.append(("exists", key))
        return self.inner.exists(key)

    def keys(self) -> Iterator[str]:
        return self.inner.keys()

    def scan(self, prefix: str) -> Iterator[str]:
        return self.inner.scan(prefix)

    def size(self, key: str) -> int:
        return self.inner.size(key)


def _counted_server(parallel: bool = False) -> tuple[SeGShareServer, list[CountingStore]]:
    stores = [CountingStore() for _ in range(3)]
    options = SeGShareOptions(rollback="whole_fs", counter_kind="rote", rollback_buckets=8, enable_dedup=True)
    env = parallel_env() if parallel else azure_wan_env()
    server = SeGShareServer(env, _CA.public_key, stores=StoreSet(*stores), options=options)
    handler = server.enclave.handler
    assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status is Status.OK
    assert handler.put_file("alice", "/d/f", b"first version").status is Status.OK
    assert handler.put_file("alice", "/d/keep", b"kept").status is Status.OK
    assert handler.handle("alice", Request(op=Op.ADD_USER, args=("bob", "team"))).status is Status.OK
    server.enclave.engine.quiesce()
    return server, stores


def _state(stores: list[CountingStore]) -> list[dict[str, bytes]]:
    return [{key: store.inner.get(key) for key in store.inner.keys()} for store in stores]


_REQUESTS = {
    "PUT_FILE": lambda handler: handler.put_file("alice", "/d/f", b"second version"),
    "SET_PERM": lambda handler: handler.handle("alice", Request(op=Op.SET_PERM, args=("/d/f", "team", "r"))),
    "REMOVE": lambda handler: handler.handle("alice", Request(op=Op.REMOVE, args=("/d/f",))),
}


@pytest.mark.parametrize("name", sorted(_REQUESTS))
def test_a_commit_reads_no_key_it_then_overwrites_or_deletes(name, monkeypatch):
    """From the end of the span's body on — the record, its apply, the
    reclaim and the epoch's close — no key is read or probed before it is
    overwritten or deleted: nothing is saved to be restored."""
    server, stores = _counted_server()
    handler = server.enclave.handler
    content_buffer = server.enclave.engine.backends.content
    committing = []
    drain = content_buffer.drain

    def at_the_commit_point():
        # The first buffer handed to the commit record: the body is over.
        committing.append([len(store.log) for store in stores])
        return drain()

    monkeypatch.setattr(content_buffer, "drain", at_the_commit_point)
    starts = [len(store.log) for store in stores]
    assert _REQUESTS[name](handler).status is Status.OK
    assert committing, "the request ran no transaction"
    for store, start, begin in zip(stores, starts, committing[-1]):
        assert start <= begin
        read: set[str] = set()
        for op, key in store.log[begin:]:
            if op in ("get", "exists"):
                read.add(key)
            else:
                assert key not in read, f"{name}: {op} of {key!r} after reading it in the commit"
    assert not any(key.startswith(_RECORD) for key in stores[0].inner.keys())


def _failing_request(monkeypatch, stores: list[CountingStore]) -> list[int]:
    """Make the next directory write fail right after it buffered its bytes;
    returns, filled in at the fault, each store's log length."""
    at_fault: list[int] = []
    write_dir = TrustedFileManager.write_dir

    def write_then_fail(self, path, directory):
        write_dir(self, path, directory)
        at_fault.extend(len(store.log) for store in stores)
        raise StorageError("injected after the member's writes")

    monkeypatch.setattr(TrustedFileManager, "write_dir", write_then_fail)
    return at_fault


def test_a_failed_member_leaves_every_key_byte_identical(monkeypatch):
    server, stores = _counted_server()
    before = _state(stores)
    at_fault = _failing_request(monkeypatch, stores)
    handler = server.enclave.handler
    response = handler.handle("alice", Request(op=Op.REMOVE, args=("/d/f",)))
    assert response.status is not Status.OK and at_fault
    assert _state(stores) == before
    # The failed member wrote nothing after the fault: its abort only
    # dropped buffers.
    for store, mark in zip(stores, at_fault):
        assert [op for op, _ in store.log[mark:] if op in ("put", "delete")] == []
    monkeypatch.undo()
    assert server.enclave.manager.read_content("/d/f") == b"first version"
    assert handler.handle("alice", Request(op=Op.REMOVE, args=("/d/f",))).status is Status.OK


def _aborted_put_log(stored: int, monkeypatch) -> list[list[tuple[str, str]]]:
    """Each store's operations in a PUT_FILE that fails after its writes,
    over ``stored`` objects."""
    server, stores = _counted_server()
    engine, dedup = server.enclave.engine, server.enclave.manager.dedup
    with engine.transaction("preload"):
        for i in range(stored - 2):  # /d/f and /d/keep hold the other two
            dedup.put(b"stored object %d" % i)
    engine.quiesce()
    assert object_count(dedup) == stored
    aborts = engine.stats.aborts
    for store in stores:
        store.log.clear()
    with monkeypatch.context() as patch:
        # The failing upload's object id, the same in every deployment.
        patch.setattr("repro.core.dedup.object_prefix", lambda writer: "obj:")
        patch.setattr("repro.core.dedup.secrets.token_urlsafe", lambda nbytes: "u" * 32)
        at_fault = _failing_request(patch, stores)
        assert server.enclave.handler.put_file("alice", "/d/g", b"second version").status is not Status.OK
    assert at_fault and engine.stats.aborts == aborts + 1
    return [store.log for store in stores]


def test_an_abort_costs_the_same_however_many_objects_are_stored(monkeypatch):
    """An aborted request's store operations do not depend on how many
    objects are stored: its abort drops buffers and reads nothing."""
    small = _aborted_put_log(10, monkeypatch)
    assert _aborted_put_log(1000, monkeypatch) == small


def test_other_members_of_a_shared_epoch_stand(monkeypatch):
    server, stores = _counted_server(parallel=True)
    handler = server.enclave.handler
    engine = server.enclave.engine
    t0 = server.env.clock.now()

    def first() -> None:
        assert handler.put_file("alice", "/d/a", b"member one").status is Status.OK

    server.switchless.dispatch(first, arrival=t0)
    assert engine.journal.epoch is not None and engine.journal.epoch.members == 1
    committed = _state(stores)
    at_fault = _failing_request(monkeypatch, stores)

    def second() -> None:
        response = handler.handle("alice", Request(op=Op.REMOVE, args=("/d/f",)))
        assert response.status is not Status.OK

    server.switchless.dispatch(second, arrival=t0)
    assert at_fault and engine.journal.epoch is not None and engine.journal.epoch.members == 1
    assert _state(stores) == committed
    monkeypatch.undo()
    engine.quiesce()
    manager = server.enclave.manager
    assert manager.read_content("/d/a") == b"member one"
    assert manager.read_content("/d/f") == b"first version"
    server.restart_enclave()
    assert server.enclave.manager.read_content("/d/a") == b"member one"


# -- a hostile host on the record ------------------------------------------------------


def _crashed_past_commit(server: SeGShareServer) -> str:
    """Kill ``server`` with a PUT_DIR's record stored but not applied; its key."""
    server.platform.fault_plan.crash_after_effects(1)  # the record's put
    with pytest.raises(EnclaveCrashed):
        server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",)))
    (key,) = [key for key in server.stores.content.keys() if key.startswith(_RECORD)]
    return key


def _server() -> SeGShareServer:
    options = SeGShareOptions(rollback="whole_fs", rollback_buckets=8)
    server, _ = under_plan(lambda stores: SeGShareServer(azure_wan_env(), _CA.public_key, stores=stores, options=options))
    assert server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status is Status.OK
    return server


def _snapshot(server: SeGShareServer) -> list[dict[str, bytes]]:
    stores = server.stores
    return [{key: store.get(key) for key in store.keys()} for store in (stores.content, stores.group, stores.dedup)]


def _refused_and_unapplied(server: SeGShareServer, match: str) -> None:
    before = _snapshot(server)
    with pytest.raises(RollbackDetected, match=match):
        server.restart_enclave()
    assert _snapshot(server) == before


def test_a_record_two_epochs_behind_is_refused():
    """The record opened on the anchor two counts back, and the anchor no
    longer names its roots: stale, however close the counter still is."""
    server = _server()
    key = _crashed_past_commit(server)
    old = server.stores.content.get(key)
    server.restart_enclave()  # the re-anchor names the record's roots: one count
    assert server.enclave.manager.exists("/e/")
    assert server.enclave.handler.handle("alice", Request(op=Op.REMOVE, args=("/e/",))).status is Status.OK
    server.stores.content.put(key, old)
    _refused_and_unapplied(server, "stale redo record")


def test_a_record_transplanted_from_another_deployment_is_refused():
    victim, other = _server(), _server()
    key = _crashed_past_commit(victim)
    foreign = _crashed_past_commit(other)
    victim.stores.content.put(key, other.stores.content.get(foreign))
    _refused_and_unapplied(victim, "corrupt or not ours")


@pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
def test_a_damaged_record_is_refused(damage):
    server = _server()
    key = _crashed_past_commit(server)
    blob = server.stores.content.get(key)
    if damage == "truncated":
        blob = blob[: len(blob) // 2]
    else:
        blob = blob[:-20] + bytes([blob[-20] ^ 0x04]) + blob[-19:]
    server.stores.content.put(key, blob)
    _refused_and_unapplied(server, "corrupt or not ours")


def test_a_key_the_span_put_and_then_deleted_seals_no_write(monkeypatch):
    """A span that puts and then deletes one fresh key has nothing of it to
    seal: the delete drops the buffered put, so the record carries neither
    write, and the commit applies it once, with no tolerant re-apply of a
    delete whose key never reached the store."""
    stores = StoreSet.in_memory()
    engine = engine_for(stores, loaded_enclave())
    applied = []
    apply = engine.journal.apply

    def applying(writes, parts=(), tolerant=False):
        applied.append((tuple(writes), tolerant))  # the record's writes, as sealed
        return apply(writes, parts, tolerant=tolerant)

    monkeypatch.setattr(engine.journal, "apply", applying)
    with engine.transaction("put-then-delete"):
        engine.backends.content.put("fresh", b"short-lived")
        engine.backends.content.delete("fresh")
        assert not engine.backends.content.exists("fresh")
    assert applied == [((), False)]
    assert not stores.content.exists("fresh")


# -- spilled buffers ------------------------------------------------------------------------


def _spilling_span(engine, count: int) -> None:
    """Write ``count`` 8 KiB values, past the buffer budget, and read each back."""
    store = engine.backends.content
    for i in range(count):
        store.put(f"k{i}", bytes([i % 256]) * 8000)
    for i in range(count):
        assert store.get(f"k{i}") == bytes([i % 256]) * 8000
    store.delete("k0")
    assert not store.exists("k0") and sorted(store.scan("k"))[:2] == ["k1", "k10"]


def test_a_span_past_its_budget_spills_into_record_parts():
    count = engine_module.BUFFER_BUDGET // 8000 + 8
    stores = StoreSet.in_memory()
    engine = engine_for(stores, loaded_enclave())
    with engine.transaction("big"):
        _spilling_span(engine, count)
        # Nothing written through: only sealed parts reached the store.
        assert not any(stores.content.exists(f"k{i}") for i in range(count))
        assert engine.stats.spills >= 1
        assert all(key.startswith("\x00journal:part:") for key in stores.content.keys())
    assert not stores.content.exists("k0")
    assert all(stores.content.get(f"k{i}") == bytes([i % 256]) * 8000 for i in range(1, count))
    assert not any(key.startswith("\x00journal:") for key in stores.content.keys())


def test_an_aborted_spilling_span_leaves_nothing():
    count = engine_module.BUFFER_BUDGET // 8000 + 8
    stores = StoreSet.in_memory()
    engine = engine_for(stores, loaded_enclave())
    with pytest.raises(RuntimeError):
        with engine.transaction("doomed"):
            _spilling_span(engine, count)
            raise RuntimeError("abort after spilling")
    assert list(stores.content.keys()) == []
