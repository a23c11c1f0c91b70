"""Pipelined closes: the next epoch commits while the counter counts.

On a parallel clock a window close writes its epoch's guard nodes under
"journal-commit" and leaves the counter increment, the anchor write and
the record drop in flight; the next epoch opens on the pending anchor
record (the close's roots, counter + 1) and its members' records name
both roots in full.  These tests pin what that may leave and what it
must not:

* a crash after the next epoch's first record and before the anchor
  write, with the TEE at either counter value, recovers the latest
  committed state;
* no response is released before its member's redo record, and the
  next epoch's opener neither pays nor waits for the increment;
* after a quiesce the anchor names every committed member, at the TEE's
  counter;
* a crash plus a replayed earlier record drops only members of the (at
  most two) epochs no anchor names yet.
"""

from __future__ import annotations

import pytest

from repro.bench.concurrency import parallel_env
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Status
from repro.core.rollback import COUNTER_ID
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed
from repro.pki import CertificateAuthority
from tests.support.explorer import under_plan

_CA = CertificateAuthority(key_bits=1024)


def _server(stores) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs", counter_kind="rote", rollback_buckets=8, switchless_workers=4,
        metadata_cache_bytes=64 * 1024,
    )
    server = SeGShareServer(parallel_env(), _CA.public_key, stores=stores, options=options)
    assert server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status is Status.OK
    server.enclave.engine.quiesce()
    return server


def _put(server: SeGShareServer, path: str, content: bytes, arrival: float, log: list | None = None) -> None:
    def thunk() -> None:
        assert server.enclave.handler.put_file("alice", path, content).status is Status.OK
        if log is not None:
            log.append(f"response {path}")

    if log is not None:
        log.append(f"request {path}")
    server.switchless.dispatch(thunk, arrival=arrival)


def _tee(server: SeGShareServer) -> int:
    rote = server.platform._segshare_counter_rote
    return rote.read(server.enclave, COUNTER_ID)


def _pipelined(server: SeGShareServer, log: list | None = None) -> None:
    """Epoch n: /d/a; epoch n+1, opened past n's window on its pending
    record: /d/b, behind whose record n's close lands, then /d/c."""
    clock, engine = server.env.clock, server.enclave.engine
    _put(server, "/d/a", b"one", clock.now(), log)
    later = clock.now() + 0.001
    _put(server, "/d/b", b"two", later, log)
    assert engine.journal.closing is None and engine.journal.epoch.members == 1
    # /d/b neither paid nor waited for n's increment: that is background work.
    opener = server.switchless.last_track.accounts
    assert opener.get("counter", 0.0) + opener.get("commit-wait", 0.0) < server.platform.costs.rote_increment
    _put(server, "/d/c", b"three", later, log)
    assert engine.journal.epoch.members == 2


def _latest(server: SeGShareServer) -> None:
    manager = server.enclave.manager
    assert [manager.read_content(f"/d/{name}") for name in "abc"] == [b"one", b"two", b"three"]
    for guard in (server.enclave.guard, server.enclave.group_guard):
        guard.verify_restored_state()
    anchor = server.enclave.guard.anchor
    assert anchor.read()[1] == _tee(server)
    anchor.verify_fresh()


def _opener_labels() -> list[str]:
    """The effects of epoch n+1's opener, /d/b, in a counting run."""
    server, plan = under_plan(_server)
    clock = server.env.clock
    _put(server, "/d/a", b"one", clock.now())
    start = len(plan.labels)
    _put(server, "/d/b", b"two", clock.now() + 0.001)
    return plan.labels[start:]


@pytest.mark.parametrize("increments", [0, 1], ids=["tee-at-c", "tee-at-c+1"])
def test_a_crash_before_the_anchor_write_recovers_the_latest_state(increments):
    """Epoch n+1's opener writes n's guard nodes, puts its own record on the
    pending anchor record and applies it; then n's close lands: its
    increment, then its anchor put.  A crash before either leaves the anchor
    at n - 1's record, the TEE at its counter or one past, and a record
    opened one past the anchor: recovery admits it and serves /d/a and /d/b."""
    labels = _opener_labels()
    record = next(k for k, label in enumerate(labels) if label.startswith("content:put '\\x00journal:redo:"))
    increment = labels.index("counter:increment")
    assert record < increment and labels[increment + 1].startswith("content:put '\\x00rb:anchor")
    server, plan = under_plan(_server)
    clock = server.env.clock
    _put(server, "/d/a", b"one", clock.now())
    counter = _tee(server)
    plan.crash_after_effects(increment + increments)
    with pytest.raises(EnclaveCrashed):
        _put(server, "/d/b", b"two", clock.now() + 0.001)
    plan.detach()
    assert _tee(server) == counter + increments
    assert server.enclave.guard.anchor.read()[1] == counter
    server.restart_enclave()
    manager = server.enclave.manager
    assert (manager.read_content("/d/a"), manager.read_content("/d/b")) == (b"one", b"two")
    _put(server, "/d/c", b"three", clock.now())
    server.enclave.engine.quiesce()
    _latest(server)


def test_no_response_is_released_before_its_record():
    """Each response follows its member's record put."""
    server, plan = under_plan(_server)
    log = plan.labels
    start = len(log)
    _pipelined(server, log)
    server.enclave.engine.quiesce()
    labels = log[start:]
    for path in ("/d/a", "/d/b", "/d/c"):
        span = labels[labels.index(f"request {path}"):labels.index(f"response {path}")]
        assert any(label.startswith("content:put '\\x00journal:redo:") for label in span), path


def test_after_a_quiesce_the_anchor_names_every_committed_member():
    server, _ = under_plan(_server)
    _pipelined(server)
    server.enclave.engine.quiesce()
    engine = server.enclave.engine
    assert engine.journal.closing is None and engine.journal.epoch is None
    assert not any(key.startswith("\x00journal:") for key in server.stores.content.keys())
    _latest(server)


def _state(stores) -> list[dict[str, bytes]]:
    return [{key: store.get(key) for key in store.keys()} for store in (stores.content, stores.group, stores.dedup)]


def test_a_replayed_record_drops_only_members_no_anchor_names():
    """Epoch n holds /d/a1 and /d/a2; the host keeps the state and record
    just after /d/a1, and the enclave dies in epoch n+1's opener, /d/b,
    after its record and before n's anchor write.  The kept record opened
    on the stored anchor, so recovery admits it and serves the state it
    names: /d/a2, acknowledged, and /d/b, not yet answered, are gone.  A
    replay takes back only members of the epochs no anchor names yet, at
    most two (2 x MAX_MEMBERS); the acknowledged ones are one epoch's,
    since the close in flight lands before the next epoch's first member
    answers.  A record of an anchored epoch is refused unless the anchor
    names its roots (tests/core/test_replayed_record.py)."""
    labels = _opener_labels()
    increment = labels.index("counter:increment")
    server, plan = under_plan(_server)
    clock = server.env.clock
    t0 = clock.now()
    _put(server, "/d/a1", b"one", t0)
    kept = _state(server.stores)
    _put(server, "/d/a2", b"two", t0)
    assert server.enclave.engine.journal.epoch.members == 2
    plan.crash_after_effects(increment)
    with pytest.raises(EnclaveCrashed):
        _put(server, "/d/b", b"three", clock.now() + 0.001)
    plan.detach()
    for store, snapshot in zip((server.stores.content, server.stores.group, server.stores.dedup), kept):
        for key in list(store.keys()):
            if key not in snapshot:
                store.delete(key)
        for key, value in snapshot.items():
            store.put(key, value)
    server.restart_enclave()
    manager = server.enclave.manager
    assert manager.read_content("/d/a1") == b"one"
    assert not manager.exists("/d/a2") and not manager.exists("/d/b")
    server.enclave.guard.verify_restored_state()
