"""An epoch's close writes each store's guard nodes, then the one anchor.

The close seals every dirty guard node and the file-system anchor straight
into their one metadata blob each, and the engine charges one round trip
per store for them, the way a member's commit applies its writes.  An
epoch whose members wrote both stores still writes one anchor and
increments the one counter once.  The puts reach the store one by one,
each node write its own effect and the anchor's after the counter's, so
a crash between any two of them recovers.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.rollback import COUNTER_ID
from repro.core.requests import Op, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from repro.store.engine import StorageEngine
from tests.support.explorer import under_plan
from tests.support.requests import request

_CA = CertificateAuthority(key_bits=1024)


class _CountingStore(InMemoryStore):
    def __init__(self) -> None:
        super().__init__()
        self.puts = 0

    def put(self, key: str, value: bytes) -> None:
        self.puts += 1
        super().put(key, value)


def _server(stores: StoreSet | None = None) -> SeGShareServer:
    options = SeGShareOptions(rollback="whole_fs", counter_kind="rote", rollback_buckets=8)
    server = SeGShareServer(azure_wan_env(), _CA.public_key, stores=stores, options=options)
    handler = server.enclave.handler
    request(handler, "alice", Op.PUT_DIR, "/d/")
    handler.put_file("alice", "/d/f", b"v0")
    return server


def _both_stores(server: SeGShareServer, version: int = 1) -> None:
    """One member that changes both guarded stores, so its close flushes both
    guards: a content file two levels down, and a new group's member lists."""
    handler = server.enclave.handler
    with server.enclave.manager.transaction("both stores"):
        assert handler.put_file("alice", "/d/f", b"v%d" % version).status is Status.OK
        assert handler.add_user("alice", f"user{version}", f"group{version}").status is Status.OK


def test_an_epoch_close_is_one_round_trip_per_store(monkeypatch):
    counting = _CountingStore(), _CountingStore(), _CountingStore()
    server = _server(StoreSet(*counting))
    enclave = server.enclave
    ocalls: collections.Counter = collections.Counter()
    closes = []
    charge, flush = enclave.ocall, StorageEngine._flush_guards

    def counted_ocall(account: str = "transitions") -> None:
        ocalls[account] += 1
        charge(account)

    def counted_flush(engine: StorageEngine, **kwargs) -> None:
        ocalls.clear()
        puts = [store.puts for store in counting]
        flush(engine, **kwargs)
        closes.append((ocalls["pfs-io"], [store.puts - before for store, before in zip(counting, puts)]))

    monkeypatch.setattr(enclave, "ocall", counted_ocall)
    monkeypatch.setattr(StorageEngine, "_flush_guards", counted_flush)
    _both_stores(server)
    ((round_trips, puts),) = closes
    # The content guard wrote "/d/" and "/", the group guard its one node,
    # and the anchor went to the content store: four puts, one round trip
    # per store.
    assert [enclave.guard.stats.last_batch_nodes, enclave.group_guard.stats.last_batch_nodes] == [2, 1]
    assert puts == [3, 1, 0]
    assert round_trips == 2
    enclave.guard.verify_restored_state()
    enclave.group_guard.verify_restored_state()


#: The effect each named crash site of the old close stood before.
_SITE_EFFECTS = {
    "anchor:fs-node-write": "content:put '\\x00rb:node:",
    "anchor:group-node-write": "group:put '\\x00rbg:node",
    "anchor:counter-incremented": "content:put '\\x00rb:anchor",
}


def _close_effects() -> list[str]:
    server, plan = under_plan(_server)
    start = len(plan.labels)
    _both_stores(server)
    return plan.labels[start:]


def test_an_epoch_over_both_stores_writes_one_anchor_and_counts_once():
    server = _server()
    enclave = server.enclave
    counter = enclave.platform._segshare_counter_rote
    anchor = enclave.guard.anchor
    before = anchor.writes, counter.read(enclave, COUNTER_ID)
    _both_stores(server)
    assert (anchor.writes, counter.read(enclave, COUNTER_ID)) == (before[0] + 1, before[1] + 1)
    (fs_main, group_main), value = anchor.read()
    assert (fs_main, group_main) == (enclave.guard.root_hash(), enclave.group_guard.root_hash())
    assert value == before[1] + 1
    assert not counter.exists("segshare-group")


@pytest.mark.parametrize(
    "site, count",
    [
        ("anchor:fs-node-write", 2),
        ("anchor:group-node-write", 1),
        ("anchor:counter-incremented", 1),
    ],
)
def test_each_node_and_anchor_write_keeps_its_crashpoint(site, count):
    """Each node write, and the anchor's after the counter's, is an effect
    of its own: a crash state of the close."""
    assert sum(label.startswith(_SITE_EFFECTS[site]) for label in _close_effects()) == count


@pytest.mark.parametrize("step", range(1, 5))
def test_a_crash_at_each_close_crashpoint_recovers(step):
    labels = _close_effects()
    targets = [k for k, label in enumerate(labels) if label.startswith(tuple(_SITE_EFFECTS.values()))]
    assert len(targets) == 4
    server, plan = under_plan(_server)
    plan.crash_after_effects(targets[step - 1])
    with pytest.raises(EnclaveCrashed):
        _both_stores(server)
    plan.detach()
    server.restart_enclave()
    enclave = server.enclave
    enclave.guard.verify_restored_state()
    enclave.group_guard.verify_restored_state()
    # The member committed before its close: recovery kept it whole.
    assert enclave.manager.read_content("/d/f") == b"v1"
    assert enclave.manager.member_list_exists("user1")
    _both_stores(server, version=2)
    assert enclave.manager.read_content("/d/f") == b"v2"
    enclave.guard.verify_restored_state()
