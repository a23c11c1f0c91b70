"""Crash-consistency: the write-ahead journal under exhaustive crash matrices.

Every mutating request runs as a journaled batch; these tests kill the
enclave before *every external effect* of representative operations (a
crash state is a prefix of the effects: tests/support/explorer.py),
restart it, and require:

1. recovery succeeds and the rollback guards verify the restored state,
2. the interrupted operation is all-or-nothing (fully applied or fully
   absent, never torn), and
3. the server keeps working afterwards — the operation can be retried.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.journal import TAG_CONTENT, TAG_DEDUP, TAG_GROUP, WriteAheadJournal
from repro.core.requests import Op, Request, Status
from repro.core.rollback import COUNTER_ID
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, FaultError, RollbackDetected
from repro.faults import FaultPlan, FaultyStore, faulty_stores
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from repro.tls.channel import StreamingResponse
from tests.support.dedup import stored_records
from tests.support.explorer import EFFECT_CLASSES, RecordingPlan, count, crash_state, explore, journal_site, under_plan

#: One CA for the whole module — its RSA key generation dominates setup.
_CA = CertificateAuthority(key_bits=1024)


def build_server(stores: StoreSet | None = None, **option_overrides) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        **option_overrides,
    )
    return SeGShareServer(azure_wan_env(), _CA.public_key, stores=stores, options=options)


def build_parallel_server(stores: StoreSet | None = None, **option_overrides) -> SeGShareServer:
    """Like :func:`build_server` but on a parallel clock, so the engine
    installs the group-commit coordinator and dispatched transactions can
    coalesce into shared epochs."""
    from repro.bench.concurrency import parallel_env

    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        switchless_workers=4,
        **option_overrides,
    )
    return SeGShareServer(parallel_env(), _CA.public_key, stores=stores, options=options)


def prime(server: SeGShareServer) -> None:
    """Baseline state every matrix iteration starts from."""
    handler = server.enclave.handler
    assert handler.put_file("alice", "/keep", b"other file").status is Status.OK
    assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status is Status.OK
    assert handler.put_file("alice", "/d/f", b"victim content").status is Status.OK


#: Every content path the operations under test create.
_PATHS = ("/keep", "/d/f", "/d/new", "/f2", "/d/g1", "/d/g2")


def object_state(server: SeGShareServer) -> tuple[dict[str, tuple[str, int]], set[str]]:
    """The stored records' entries and the object ids on the store."""
    keys = server.stores.dedup.keys()
    objects = {key.partition("\x00")[0] for key in keys if key.startswith("obj:")}
    return stored_records(server.enclave.manager.dedup), objects


def check_dedup_records(server: SeGShareServer) -> None:
    """Records, objects and content files agree after recovery.

    Every ``idx:`` record on the store is a whole entry, every entry names
    a stored object and every stored object is named — the restart's sweep
    reclaimed the unreferenced ``obj:`` keys and nothing else — and each
    name carries one reference per live file pointing at it: with dedup,
    one per live file holding its content.
    """
    manager = server.enclave.manager
    dedup = manager.dedup
    keys = list(server.stores.dedup.keys())
    index, objects = object_state(server)
    assert {key.partition("\x00")[0][4:] for key in keys if key.startswith("idx:")} == set(index)
    assert objects == {object_id for object_id, _ in index.values()}
    files = [path for path in _PATHS if manager.exists(path)]
    if dedup.deduplicate:
        expected = Counter(dedup.h_name(manager.read_content(path)) for path in files)
    else:
        expected = Counter(manager._pointer_target(path) for path in files)
    assert {name: refcount for name, (_, refcount) in index.items()} == expected


# -- the operations under test -------------------------------------------------


def run_move(server: SeGShareServer) -> None:
    manager = server.enclave.manager
    if not manager.exists("/d/f"):
        return  # a post-commit crash already completed the move
    response = server.enclave.handler.handle(
        "alice", Request(op=Op.MOVE, args=("/d/f", "/f2"))
    )
    assert response.status is Status.OK


def check_move(server: SeGShareServer) -> None:
    manager = server.enclave.manager
    at_src = manager.exists("/d/f")
    at_dst = manager.exists("/f2")
    assert at_src != at_dst, "move was torn: file at both or neither path"
    where = "/d/f" if at_src else "/f2"
    assert manager.read_content(where) == b"victim content"
    assert ("/d/f" in manager.read_dir("/d/").children) == at_src
    assert ("/f2" in manager.read_dir("/").children) == at_dst


#: The request-level matrix is the crash explorer's (tests/support/explorer.py):
#: each operation, in each configuration, crashed after each of its effects,
#: recovered and judged by its oracle — reads all-or-nothing, no rollback, no
#: stranded object, every reference count right, both guards verified — and
#: the server must serve on: the request, issued again if it did not land,
#: lands, and the next writes succeed.
_MATRIX = {
    "move": ("uncached", "move"),
    "remove": ("uncached", "remove"),
    "put_new": ("uncached", "upload"),
    "overwrite": ("uncached", "overwrite"),
    "put_dedup": ("dedup", "upload"),
    # An overwrite writes the adopted record and removes the released one;
    # a remove removes its record; a move re-points.
    "overwrite_dedup": ("dedup", "overwrite"),
    "remove_dedup": ("dedup", "remove"),
    "move_dedup": ("dedup", "move"),
    "move_hidden": ("hiding", "move"),
    # Cached: the enclave-resident metadata cache must never let a value
    # written by the rolled-back batch survive the crash.
    "move_cached": ("whole_fs", "move"),
    "overwrite_cached": ("whole_fs", "overwrite"),
    "put_dedup_cached": ("dedup", "dedup_upload"),
}


@pytest.mark.parametrize("name", sorted(_MATRIX))
def test_crash_matrix(name):
    """Kill the enclave before every effect of the operation; each crash
    must recover to a verified, all-or-nothing state."""
    report = explore(*_MATRIX[name])
    assert report.states == report.effects + 1


class TestGroupMutations:
    @staticmethod
    def _prime_groups(server: SeGShareServer) -> None:
        for user in ("alice", "bob"):
            response = server.enclave.handler.handle("alice", Request(op=Op.ADD_USER, args=(user, "eng")))
            assert response.status is Status.OK

    @staticmethod
    def _run_revoke(server: SeGShareServer) -> None:
        if "eng" not in server.enclave.access.user_groups("bob"):
            return
        response = server.enclave.handler.handle("alice", Request(op=Op.RMV_USER, args=("bob", "eng")))
        assert response.status is Status.OK

    def test_revocation_crash_is_all_or_nothing(self):
        """Crashing mid-revocation must not leave membership half-updated
        — the group store and the content store recover together, and a
        revocation that did not land revokes when issued again."""
        explore("uncached", "revoke")

    @staticmethod
    def _bob_reads(server: SeGShareServer) -> bool:
        response = server.enclave.handler.handle("bob", Request(op=Op.GET, args=("/d/f",)))
        return getattr(response, "status", Status.OK) is Status.OK

    def _revoke_then_interrupt_unrelated_upload(self, interrupt: str, swap: bool):
        """Share ``/d/f`` with eng, revoke bob, then interrupt an unrelated
        upload mid-batch: ``"crash"`` kills the enclave before the upload's
        record lands (the host then has the store to itself until the restart),
        ``"fault"`` fails one store put (the live enclave drops the
        uncommitted batch).  With ``swap`` the host first writes the
        group store's pre-revocation data objects back."""
        plan = FaultPlan()
        server = build_server(faulty_stores(StoreSet.in_memory(), plan))
        prime(server)
        self._prime_groups(server)
        handler = server.enclave.handler
        grant = Request(op=Op.SET_PERM, args=("/d/f", "eng", "r"))
        assert handler.handle("alice", grant).status is Status.OK
        assert self._bob_reads(server)
        group = server.stores.group.inner
        pre_revocation = {
            key: group.get(key)
            for key in group.keys()
            if not key.startswith(("\x00rbg:", "\x00journal:"))
        }
        self._run_revoke(server)
        assert not self._bob_reads(server)
        if interrupt == "fault":
            if swap:
                for key, value in pre_revocation.items():
                    group.put(key, value)
            plan.fail_nth(nth=1, op="put", key="\x00journal:redo")  # the commit point
            assert handler.put_file("alice", "/unrelated", b"x").status is Status.RETRY
            return server
        plan.attach_platform(server.platform).crash_after_effects(1)  # the object lands
        with pytest.raises(EnclaveCrashed):
            handler.put_file("alice", "/unrelated", b"x")
        plan.detach()
        assert "journal:redo" in plan.events[-1][1]
        if swap:
            for key, value in pre_revocation.items():
                group.put(key, value)
        return server

    def test_member_list_swapped_during_crash_is_detected(self):
        """Immediate revocation must survive a crash: recovery rebuilds a
        guard only from data checked against a redo record's root, and a
        crash before the commit point leaves nothing to rebuild, so a
        pre-revocation member list slipped in while the enclave was down is
        a detected rollback — not a blessed state in which the revoked user
        reads the file again."""
        server = self._revoke_then_interrupt_unrelated_upload("crash", swap=True)
        server.restart_enclave()
        assert not self._bob_reads(server)
        with pytest.raises(RollbackDetected):
            server.enclave.access.user_groups("bob")

    def test_member_list_swapped_before_an_aborted_request_stays_revoked(self):
        """The same swap against a live enclave: an aborted request
        touches no guard node — it must not rebuild the node from
        (swapped) data and bless it."""
        server = self._revoke_then_interrupt_unrelated_upload("fault", swap=True)
        assert not self._bob_reads(server)
        with pytest.raises(RollbackDetected):
            server.enclave.access.user_groups("bob")

    @pytest.mark.parametrize("interrupt", ["crash", "fault"])
    def test_honest_interruption_after_revocation_keeps_it_revoked(self, interrupt):
        server = self._revoke_then_interrupt_unrelated_upload(interrupt, swap=False)
        if interrupt == "crash":
            server.restart_enclave()
        for guard in server.enclave.engine.guards:
            guard.verify_restored_state()
        assert not self._bob_reads(server)
        assert "eng" not in server.enclave.access.user_groups("bob")
        assert not server.enclave.manager.exists("/unrelated")


class TestEpochCrashMatrix:
    """Crash at every journal and anchor step inside a coalesced epoch.

    Two overlapping uploads share one group-commit epoch: member one
    commits, member two commits, then the close flushes the batched
    guards (anchor writes) and retires the marker.  Killing the enclave
    at each step must preserve *per-transaction* all-or-nothing: a file
    is fully present or fully absent, never torn, and a later member
    never survives a crash that lost an earlier one.
    """

    @staticmethod
    def _run_epoch_pair(server: SeGShareServer) -> None:
        engine = server.enclave.engine
        handler = server.enclave.handler
        manager = server.enclave.manager
        t0 = server.env.clock.now()
        for path, content in (("/d/g1", b"epoch one"), ("/d/g2", b"epoch two")):
            if manager.exists(path):
                continue  # a post-commit crash already landed this one

            def thunk(p=path, c=content):
                assert handler.put_file("alice", p, c).status is Status.OK

            server.switchless.dispatch(thunk, arrival=t0)
        engine.quiesce()

    def _armed_server(self, **options) -> tuple[SeGShareServer, RecordingPlan]:
        server, plan = under_plan(lambda stores: build_parallel_server(stores, **options))
        prime(server)
        # prime() drives the handler directly, which also opens an epoch
        # on a parallel clock; close it so the matrix enumerates only the
        # pair's own effects.
        server.enclave.engine.quiesce()
        return server, plan

    def _count(self, prefix: str, **options) -> list[int]:
        """The pair's effects of the class the ``prefix`` sites stood before."""
        server, plan = self._armed_server(**options)
        start = len(plan.labels)
        self._run_epoch_pair(server)
        # Not vacuous: the two uploads really did share one epoch.
        assert server.enclave.engine.group_commit.stats.histogram.get("2", 0) >= 1
        return [k for k, label in enumerate(plan.labels[start:]) if EFFECT_CLASSES[prefix](label)]

    @pytest.mark.parametrize("prefix", ["journal:", "anchor:"])
    def test_epoch_crash_matrix(self, prefix):
        self._matrix(prefix)

    @pytest.mark.parametrize("prefix", ["journal:", "anchor:"])
    def test_epoch_crash_matrix_with_dedup(self, prefix):
        """Each member seals its own records before its commit record."""
        self._matrix(prefix, enable_dedup=True)

    def _matrix(self, prefix: str, **options) -> None:
        steps = self._count(prefix, **options)
        assert steps, f"epoch pair made no {prefix} effects"
        for step in steps:
            server, plan = self._armed_server(**options)
            plan.crash_after_effects(step)
            with pytest.raises(EnclaveCrashed):
                self._run_epoch_pair(server)
            plan.detach()

            server.restart_enclave()
            server.enclave.guard.verify_restored_state()
            manager = server.enclave.manager
            assert manager.read_content("/keep") == b"other file"
            for path, content in (("/d/g1", b"epoch one"), ("/d/g2", b"epoch two")):
                if manager.exists(path):
                    assert manager.read_content(path) == content, (
                        f"{prefix} step {step}: {path} was torn"
                    )
            # Members commit in epoch order: the second surviving without
            # the first would mean the crash broke that order.
            if manager.exists("/d/g2"):
                assert manager.exists("/d/g1"), (
                    f"{prefix} step {step}: later member outlived earlier one"
                )
            check_dedup_records(server)
            # The server keeps working: both uploads land on retry.
            self._run_epoch_pair(server)
            assert manager.read_content("/d/g1") == b"epoch one"
            assert manager.read_content("/d/g2") == b"epoch two"


class TestRecoveryDetails:
    def test_no_journal_residue_after_clean_operations(self):
        server = build_server()
        prime(server)
        assert not any(
            key.startswith(("\x00journal:redo:", "\x00journal:part:"))
            for key in server.stores.content.keys()
        )

    def test_repeated_crash_recover_cycles(self):
        server, plan = under_plan(build_server)
        prime(server)
        # Twice before the move's record lands, then once past it.
        for step in (0, 0, 1):
            plan.crash_after_effects(step)
            with pytest.raises(EnclaveCrashed):
                run_move(server)
            server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        check_move(server)
        run_move(server)
        assert server.enclave.manager.read_content("/f2") == b"victim content"

    @staticmethod
    def _faulty_server(enable_dedup: bool) -> tuple[SeGShareServer, FaultPlan]:
        """A primed server whose stores report to a live fault plan."""
        server, plan = under_plan(lambda stores: build_server(stores, enable_dedup=enable_dedup))
        prime(server)
        return server, plan

    @pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
    def test_dedup_orphans_swept_on_recovery(self, enable_dedup):
        """Die before every effect of a two-chunk upload — streaming its
        chunks, closing the object, adopting it, sealing its record — and
        restart: the file is whole or absent, and every stored object is
        referenced, as often as live files name it."""
        explore("dedup" if enable_dedup else "uncached", "upload")

    @staticmethod
    def _unindexed_objects(server: SeGShareServer) -> set[str]:
        indexed = {entry[0] for entry in stored_records(server.enclave.manager.dedup).values()}
        stored = {
            key.partition("\x00")[0]
            for key in server.stores.dedup.keys()
            if key.startswith("obj:")
        }
        return stored - indexed

    @pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
    def test_upload_crashed_mid_stream_is_swept_on_restart(self, enable_dedup):
        """Streamed chunks land before the PUT_FILE transaction opens: no
        journal batch covers them and `close` has not written metadata."""
        server = build_server(enable_dedup=enable_dedup)
        prime(server)
        sink = server.enclave.handler.open_upload("alice", "/d/streamed")
        sink.write(b"s" * (3 * 4096 + 9))  # three chunks flushed, no finish
        assert len(self._unindexed_objects(server)) == 1
        assert not any(key.startswith("\x00journal:redo:") for key in server.stores.content.keys())

        server.restart_enclave()  # the crash
        server.enclave.guard.verify_restored_state()
        assert self._unindexed_objects(server) == set()
        assert not server.enclave.manager.exists("/d/streamed")
        assert server.enclave.manager.read_content("/d/f") == b"victim content"
        # The path is free again.
        response = server.enclave.handler.put_file("alice", "/d/streamed", b"second try")
        assert response.status is Status.OK

    @pytest.mark.parametrize("nth", [1, 2, 3])
    @pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
    def test_torn_range_write_is_swept_on_restart(self, enable_dedup, nth):
        """The ``nth`` ranged write of a streamed upload persists only half
        its run, and the enclave dies before the upload's transaction opens.
        The object is fresh, so no record names it: the restart's sweep
        leaves no key of it, and the path is free."""
        server, plan = self._faulty_server(enable_dedup)
        plan.torn_write(nth=nth, store="dedup", op="put_range")
        sink = server.enclave.handler.open_upload("alice", "/d/torn")
        for _ in range(3):
            sink.write(bytes(range(256)) * 256)  # one 64 KiB group each
        assert [event[:3] for event in plan.events] == [("torn", "dedup", "put_range")]
        (object_id,) = self._unindexed_objects(server)
        plan.detach()
        server.restart_enclave()  # the crash
        server.enclave.guard.verify_restored_state()
        assert not [key for key in server.stores.dedup.keys() if key.startswith(object_id)]
        assert self._unindexed_objects(server) == set()
        assert not server.enclave.manager.exists("/d/torn")
        assert server.enclave.handler.put_file("alice", "/d/torn", b"again").status is Status.OK

    @pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
    def test_abort_crashed_at_any_store_op_is_swept_on_restart(self, enable_dedup):
        """`abort` seals the temporary object and removes it, metadata
        first — outside any journal batch.  Die before each of its effects,
        including between the meta delete and the last chunk delete, where
        the leftover chunks have no metadata to be found by."""

        def aborting_server(crash_at: int | None):
            server, plan = self._faulty_server(enable_dedup)
            sink = server.enclave.handler.open_upload("alice", "/d/aborted")
            sink.write(b"a" * (2 * 4096 + 1))
            if crash_at is not None:
                plan.crash_after_effects(crash_at)
            return server, plan, sink

        server, plan, sink = aborting_server(None)
        before = plan.effects
        sink.abort()
        total = plan.effects - before
        assert self._unindexed_objects(server) == set()

        headless = 0
        for nth in range(total):
            server, plan, sink = aborting_server(nth)
            with pytest.raises(EnclaveCrashed):
                sink.abort()
            plan.detach()
            for object_id in self._unindexed_objects(server):
                headless += not server.stores.dedup.exists(object_id + "\x00meta")
            server.restart_enclave()
            assert self._unindexed_objects(server) == set(), f"dedup op {nth}: debris left"
        assert headless >= 2, "no crash fell between the meta delete and the last chunk delete"

    def test_in_process_fault_rolls_back_without_restart(self):
        """A transient store fault mid-batch aborts the request in place:
        the handler answers RETRY and the enclave keeps serving."""
        plan = FaultPlan()
        stores = faulty_stores(StoreSet.in_memory(), plan)
        options = SeGShareOptions(
            rollback="whole_fs", counter_kind="rote", rollback_buckets=8
        )
        server = SeGShareServer(
            azure_wan_env(), _CA.public_key, stores=stores, options=options
        )
        prime(server)
        handler = server.enclave.handler

        # Measure a move's store-op footprint, then schedule one transient
        # fault in the middle of the next move.
        ops_before = plan.store_ops
        assert handler.handle("alice", Request(op=Op.MOVE, args=("/d/f", "/f2"))).status is Status.OK
        ops_per_move = plan.store_ops - ops_before
        assert handler.handle("alice", Request(op=Op.MOVE, args=("/f2", "/d/f"))).status is Status.OK

        plan.fail_nth(nth=max(1, ops_per_move // 2))
        response = handler.handle("alice", Request(op=Op.MOVE, args=("/d/f", "/f2")))
        assert response.status is Status.RETRY
        manager = server.enclave.manager
        assert manager.exists("/d/f") and not manager.exists("/f2")
        server.enclave.guard.verify_restored_state()
        # Retrying the rolled-back request succeeds.
        response = handler.handle("alice", Request(op=Op.MOVE, args=("/d/f", "/f2")))
        assert response.status is Status.OK
        assert manager.read_content("/f2") == b"victim content"


# -- the redo record ---------------------------------------------------------------
#
# A member's writes reach the store only through its sealed redo record: a
# delete is sealed as its key, never as the value it removes, and nothing
# is read before a write.  The unit-level classes drive a bare journal over
# three stores and crash it before *every effect*, including inside a
# re-apply.  Records and parts are sealed, so an altered, moved or cut one is
# a typed error, never applied.

_ROOT_KEY = bytes(range(32))
_CHUNK = 4144  # a 4 KiB chunk's ciphertext


def _object(object_id: str, fill: int) -> dict[str, bytes]:
    """The stored keys of a three-chunk protected file."""
    keys = {f"{object_id}\x00chunk\x00{i}": bytes([fill + i]) * _CHUNK for i in range(3)}
    keys[f"{object_id}\x00meta"] = bytes([fill]) * 92
    return keys


def _stores(kind: str, plan: FaultPlan | None = None) -> StoreSet:
    """Three stores, or three views of a 3-way shard router; ``plan`` sees
    every backend operation."""

    def backend(index: int):
        store = InMemoryStore()
        return store if plan is None else FaultyStore(store, plan, name=f"backend{index}")

    if kind == "sharded":
        return StoreSet.sharded([backend(i) for i in range(3)])
    return StoreSet(content=backend(0), group=backend(1), dedup=backend(2))


def _seed(stores: StoreSet) -> None:
    stores.content.put("/keep", b"k" * 100)
    stores.content.put("/edit", b"old" * 50)
    stores.group.put("members", b"g" * 80)
    for object_id, fill in (("obj:1", 10), ("obj:2", 20)):
        for key, value in _object(object_id, fill).items():
            stores.dedup.put(key, value)


def _snapshot(stores: StoreSet) -> dict[str, dict[str, bytes]]:
    views = {"content": stores.content, "group": stores.group, "dedup": stores.dedup}
    return {name: {key: view.get(key) for key in view.keys()} for name, view in views.items()}


def _journal_keys(stores: StoreSet) -> list[str]:
    return [
        key
        for view in (stores.content, stores.group, stores.dedup)
        for key in view.keys()
        if key.startswith("\x00journal:")
    ]


def _deletes(object_id: str, fill: int) -> list:
    return [(TAG_DEDUP, key, None) for key in _object(object_id, fill)]


#: One member's writes: an overwrite, a multi-chunk delete, a delete on
#: another store, a creation, and a key deleted and re-created.
_BATCH = [
    (TAG_CONTENT, "/edit", b"new" * 60),
    *_deletes("obj:1", 10),
    (TAG_GROUP, "members", None),
    (TAG_CONTENT, "/fresh", b"f" * 10),
    (TAG_DEDUP, "obj:1\x00meta", b"re-created inside the batch"),
]


def _run_batch(stores: StoreSet, done: list | None = None) -> None:
    """One epoch of one member; ``done`` learns when the member's record is stored."""
    journal = WriteAheadJournal(stores, _ROOT_KEY)
    journal.open_epoch("remove-big")
    base = journal.begin_member()
    record = journal.commit_member(base, b"", b"", "remove-big", writes=_BATCH)
    if done is not None:
        done.append(1)
    journal.apply(record.writes, record.parts)
    journal.close_epoch()
    journal.land()


def _recover(stores: StoreSet) -> bool:
    journal = WriteAheadJournal(stores, _ROOT_KEY)
    recovered = bool(journal.recover())
    journal.recover_finish()
    return recovered


def _labels(kind: str, run) -> list[str]:
    """The effects ``run`` makes on a seeded world."""
    plan = RecordingPlan()
    stores = _stores(kind)
    _seed(stores)
    run(faulty_stores(stores, plan))
    return plan.labels


def _crashed_world(kind: str, run, step: int) -> StoreSet:
    """Seed a world, then kill ``run`` after ``step`` of its effects."""
    stores = _stores(kind)
    _seed(stores)
    with pytest.raises(EnclaveCrashed):
        run(faulty_stores(stores, FaultPlan().crash_after_effects(step)))
    return stores


def _stopped_at(kind: str, run, site: str, nth: int = 1, stores: StoreSet | None = None) -> StoreSet:
    """``run`` over a seeded world (or ``stores``), killed where ``site`` fired."""
    step = journal_site(_labels(kind, run), site, nth)
    if stores is None:
        return _crashed_world(kind, run, step)
    with pytest.raises(EnclaveCrashed):
        run(faulty_stores(stores, FaultPlan().crash_after_effects(step)))
    return stores


def _record_key(stores: StoreSet) -> str:
    (key,) = [key for key in stores.content.keys() if key.startswith("\x00journal:redo:")]
    return key


@pytest.mark.parametrize("kind", ["separate", "sharded"])
class TestMovedPreImages:
    """Deletes of a multi-chunk object under redo: nothing is moved or
    copied, the record names the keys, and a crash anywhere lands on one
    side of the record."""

    def _end_states(self, kind: str):
        stores = _stores(kind)
        _seed(stores)
        before = _snapshot(stores)
        _run_batch(stores)
        return before, _snapshot(stores)

    def test_committed_batch_leaves_no_journal_key(self, kind):
        before, after = self._end_states(kind)
        assert "obj:1\x00chunk\x000" in before["dedup"]
        assert "obj:1\x00chunk\x000" not in after["dedup"]
        assert after["dedup"]["obj:1\x00meta"] == b"re-created inside the batch"
        assert "members" not in after["group"]
        assert not any(key.startswith("\x00journal:") for view in after.values() for key in view)

    def test_delete_moves_the_value_and_seals_only_its_digest(self, kind):
        """A delete is sealed as its key alone: the record holds no deleted
        value, and no stored key changes before the record is applied."""
        stores = _stores(kind)
        _seed(stores)
        before = _snapshot(stores)
        _stopped_at(kind, _run_batch, "journal:committed", stores=stores)
        state = _snapshot(stores)
        record = state["content"].pop(_record_key(stores))
        assert state == before
        assert len(record) < _CHUNK  # three deleted chunks' values are not in it

    def test_in_process_rollback_moves_everything_back(self, kind):
        """A member that spilled its deletes into a part and rolls back
        leaves every stored key as it was: nothing was applied."""
        stores = _stores(kind)
        _seed(stores)
        before = _snapshot(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        journal.open_epoch("doomed")
        base = journal.begin_member()
        journal.record([*_deletes("obj:2", 20), (TAG_CONTENT, "/keep", None)])
        journal.rollback_member(base)
        journal.rollback()
        assert _snapshot(stores) == before

    def test_crash_at_every_store_op_is_all_or_nothing(self, kind):
        """Covers dying at the record put, inside the apply, and anywhere in
        the close."""
        before, after = self._end_states(kind)
        total = len(_labels(kind, _run_batch))
        assert total > 8
        for nth in range(total):
            done: list[int] = []
            stores = _crashed_world(kind, lambda s, d=done: _run_batch(s, done=d), nth)
            _recover(stores)
            state = _snapshot(stores)
            # A crash at the record put lands on either side of it.
            allowed = [after] if done else [before, after]
            assert state in allowed, f"store op {nth}: torn state or committed member lost"
            assert _journal_keys(stores) == [], f"store op {nth}: journal residue"

    def test_crash_inside_the_restore_is_repaired_by_the_next(self, kind):
        """Recovery re-applies the record; dying at any of its store
        operations, the next recovery applies it again to the same end."""

        def until_commit(stores: StoreSet) -> None:
            _stopped_at(kind, _run_batch, "journal:committed", stores=stores)

        _, after = self._end_states(kind)
        plan = FaultPlan()
        counting = _stores(kind, plan)
        _seed(counting)
        until_commit(counting)
        effects_before = plan.effects
        assert _recover(counting)
        recovery_effects = plan.effects - effects_before
        assert _snapshot(counting) == after
        for nth in range(recovery_effects):
            plan = FaultPlan()
            stores = _stores(kind, plan)
            _seed(stores)
            until_commit(stores)
            plan.crash_after_effects(nth)
            with pytest.raises(EnclaveCrashed):
                _recover(stores)
            _recover(stores)
            assert _snapshot(stores) == after, f"recovery op {nth}: not the committed state"
            assert _journal_keys(stores) == []

    @pytest.mark.parametrize("attack", ["tamper", "swap", "delete", "replace-unmoved"])
    def test_altered_saved_value_is_rollback_detected(self, kind, attack):
        """The record is sealed under its own key: altered, moved into
        another writer's slot, cut short (``delete``) or replaced by another
        journal object, it is a typed error and nothing of it is applied."""
        stores = _stopped_at(kind, _run_batch, "journal:committed")
        key = _record_key(stores)
        blob = stores.content.get(key)
        if attack == "tamper":
            stores.content.put(key, blob[:40] + bytes([blob[40] ^ 1]) + blob[41:])
        elif attack == "swap":
            stores.content.delete(key)
            stores.content.put(key + "other-replica", blob)
        elif attack == "delete":
            stores.content.put(key, blob[:-100])
        else:
            stores.content.put(key, WriteAheadJournal(stores, _ROOT_KEY).seal_stamp("req:1")[1])
        state = _snapshot(stores)
        # Recovery is keyed by writer: the moved record meets the recovery
        # of the writer whose slot it now sits in.
        writer = "other-replica" if attack == "swap" else ""
        with pytest.raises(RollbackDetected):
            WriteAheadJournal(stores, _ROOT_KEY, writer=writer).recover()
        assert _snapshot(stores) == state


def _run_epoch(stores: StoreSet, done: list[int]) -> None:
    """Two members of one group-commit epoch, each deleting an object."""
    journal = WriteAheadJournal(stores, _ROOT_KEY)
    journal.open_epoch("epoch")
    for member, (object_id, fill) in enumerate((("obj:1", 10), ("obj:2", 20)), start=1):
        base = journal.begin_member()
        writes = [*_deletes(object_id, fill), (TAG_CONTENT, "/edit", b"member %d" % member)]
        record = journal.commit_member(base, b"", b"", f"m{member}", writes=writes)
        done.append(member)
        journal.apply(record.writes, record.parts)
    journal.close_epoch()
    journal.land()


@pytest.mark.parametrize("kind", ["separate", "sharded"])
class TestMovedPreImagesInEpochs:
    """Two members of one epoch: each record replaces the last, and
    recovery re-applies only the latest."""

    def _states(self, kind: str) -> list[dict]:
        """The state after 0, 1 and 2 committed members."""
        states = []
        for members in range(3):
            stores = _stores(kind)
            _seed(stores)
            if members == 1:
                # Stop as the second reaches its commit and let recovery
                # finish the first.
                _stopped_at(kind, lambda s: _run_epoch(s, []), "journal:commit", nth=2, stores=stores)
            elif members == 2:
                _run_epoch(stores, [])
            if members:
                _recover(stores)
            states.append(_snapshot(stores))
        assert states[0] != states[1] != states[2]
        return states

    def test_crash_at_every_store_op_keeps_each_member_whole(self, kind):
        """The stored record is always the last committed member's: a
        crash re-applies exactly that member, whose predecessors' writes
        are already in place."""
        states = self._states(kind)
        total = len(_labels(kind, lambda stores: _run_epoch(stores, [])))
        for nth in range(total):
            done: list[int] = []
            stores = _crashed_world(kind, lambda s, d=done: _run_epoch(s, d), nth)
            _recover(stores)
            state = _snapshot(stores)
            # A crash at a record put lands on either side of it.
            allowed = states[len(done) : len(done) + 2]
            assert state in allowed, f"store op {nth}: member torn or lost"
            assert _journal_keys(stores) == [], f"store op {nth}: journal residue"

    def test_member_rollback_moves_back_only_its_own_values(self, kind):
        states = self._states(kind)
        stores = _stores(kind)
        _seed(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        journal.open_epoch("epoch")
        base = journal.begin_member()
        record = journal.commit_member(
            base, b"", b"", "m1", writes=[*_deletes("obj:1", 10), (TAG_CONTENT, "/edit", b"member 1")]
        )
        journal.apply(record.writes)
        base = journal.begin_member()
        journal.record(_deletes("obj:2", 20))
        journal.rollback_member(base)
        assert stores.dedup.get("obj:2\x00chunk\x000") == _object("obj:2", 20)["obj:2\x00chunk\x000"]
        journal.close_epoch()
        journal.land()
        assert _snapshot(stores) == states[1]
        assert _journal_keys(stores) == []

    def test_a_fault_applying_a_members_record_keeps_the_member(self, kind):
        """Past its record the member is committed: a fault applying it is
        rolled forward by applying it again, deletes already done skipped."""
        states = self._states(kind)
        plan = FaultPlan()
        stores = _stores(kind, plan)
        _seed(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        journal.open_epoch("epoch")
        base = journal.begin_member()
        writes = [*_deletes("obj:1", 10), (TAG_CONTENT, "/edit", b"member 1")]
        record = journal.commit_member(base, b"", b"", "m1", writes=writes)
        plan.fail_nth(nth=2, op="delete")
        with pytest.raises(FaultError):
            journal.apply(record.writes)
        journal.apply(record.writes, tolerant=True)
        journal.close_epoch()
        journal.land()
        assert _snapshot(stores) == states[1]
        assert _journal_keys(stores) == []

    def test_a_fault_past_the_close_point_leaves_only_inert_parts(self, kind):
        """The close stands when dropping the epoch's parts faults: no
        stored record names them, and the next recovery drops them."""
        states = self._states(kind)
        plan = FaultPlan()
        stores = _stores(kind, plan)
        _seed(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        journal.open_epoch("epoch")
        base = journal.begin_member()
        journal.record(_deletes("obj:1", 10))
        record = journal.commit_member(base, b"", b"", "m1", writes=[(TAG_CONTENT, "/edit", b"member 1")])
        journal.apply(record.writes, record.parts)
        plan.fail_nth(nth=2, op="delete")  # the record, then the part
        journal.close_epoch()
        journal.land()
        assert plan.events and journal.epoch is None
        assert [key for key in _journal_keys(stores) if "redo" in key] == []
        assert not _recover(stores)
        assert _snapshot(stores) == states[1]
        assert _journal_keys(stores) == []


# -- spilled groups ----------------------------------------------------------------
#
# A member whose write buffer outgrows its budget seals the overflow, one
# group at a time, into record parts.  A part is inert until the member's
# record names it: recovery applies the named parts in order, then the
# record's own writes, and drops every part.

_DEDUP_GROUP = [
    *_deletes("obj:1", 10),
    (TAG_DEDUP, "obj:2\x00meta", b"overwritten meta"),
    (TAG_DEDUP, "obj:2\x00chunk\x001", b"\x07" * _CHUNK),
    (TAG_DEDUP, "obj:3\x00meta", b"created"),
    (TAG_DEDUP, "obj:3\x00chunk\x000", b"\x08" * _CHUNK),
]
_CONTENT_GROUP = [(TAG_CONTENT, "/edit", b"new" * 60), (TAG_CONTENT, "/keep", None), (TAG_CONTENT, "/fresh", b"f" * 10)]
#: The buffered rest, rewriting two keys the first group wrote.
_LAST_WRITES = [(TAG_DEDUP, "obj:2\x00meta", None), (TAG_DEDUP, "obj:1\x00meta", b"back again")]


def _run_group_batch(stores: StoreSet, done: list | None = None) -> None:
    """One member spilling two groups, then committing the rest."""
    journal = WriteAheadJournal(stores, _ROOT_KEY)
    journal.open_epoch("flush")
    base = journal.begin_member()
    journal.record(_DEDUP_GROUP)
    journal.record(_CONTENT_GROUP)
    record = journal.commit_member(base, b"", b"", "flush", writes=_LAST_WRITES)
    if done is not None:
        done.append(1)
    journal.apply(record.writes, record.parts)
    journal.close_epoch()
    journal.land()


_PART = "\x00journal:part::"


@pytest.mark.parametrize("kind", ["separate", "sharded"])
class TestGroupEntries:
    def _before(self, kind: str):
        stores = _stores(kind)
        _seed(stores)
        return _snapshot(stores)

    def _stopped(self, kind: str, site: str, nth: int = 1) -> StoreSet:
        return _stopped_at(kind, _run_group_batch, site, nth)

    def _after(self, kind: str):
        stores = _stores(kind)
        _seed(stores)
        _run_group_batch(stores)
        return _snapshot(stores)

    def test_a_group_is_one_entry_and_its_moves_are_numbered_by_item(self, kind):
        """One part per spilled group, numbered in spill order, each holding
        its writes' values; the record names them in that order."""
        stores = self._stopped(kind, "journal:committed")
        parts = sorted(k for k in stores.content.keys() if k.startswith(_PART))
        assert parts == [f"{_PART}00000000", f"{_PART}00000001"]
        assert sorted(_journal_keys(stores)) == sorted([_record_key(stores), *parts])
        # The two new chunks; obj:1's deleted chunks are named, not copied.
        assert 2 * _CHUNK < stores.content.size(parts[0]) < 3 * _CHUNK
        assert stores.content.size(parts[1]) < _CHUNK
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        assert [len(journal.read_part(part)) for part in parts] == [len(_DEDUP_GROUP), len(_CONTENT_GROUP)]

    def test_the_entry_is_stored_before_anything_moves_or_changes(self, kind):
        stores = self._stopped(kind, "journal:record")
        state = _snapshot(stores)
        part = state["content"].pop(f"{_PART}00000000")
        assert len(part) > _CHUNK  # the overwritten chunk's new value is inside
        assert state == self._before(kind)

    @pytest.mark.parametrize("site, nth", [("journal:record", 1), ("journal:record", 2), ("journal:commit", 1)])
    def test_crash_inside_a_group_recovers_the_pre_batch_bytes(self, kind, site, nth):
        """Before the commit point no record names the parts: recovery
        applies nothing and drops them."""
        stores = self._stopped(kind, site, nth)
        assert not _recover(stores)
        assert _snapshot(stores) == self._before(kind)
        assert _journal_keys(stores) == []

    def test_crash_at_every_store_op_is_all_or_nothing(self, kind):
        before = self._before(kind)
        after = self._after(kind)
        assert after["dedup"]["obj:1\x00meta"] == b"back again"
        assert "obj:2\x00meta" not in after["dedup"] and "/keep" not in after["content"]
        total = len(_labels(kind, _run_group_batch))
        for nth in range(total):
            done: list[int] = []
            stores = _crashed_world(kind, lambda s, d=done: _run_group_batch(s, done=d), nth)
            _recover(stores)
            state = _snapshot(stores)
            allowed = [after] if done else [before, after]
            assert state in allowed, f"store op {nth}: torn state or committed member lost"
            assert _journal_keys(stores) == [], f"store op {nth}: journal residue"

    def test_a_recorded_key_keeps_its_first_pre_image(self, kind):
        """Two groups wrote ``obj:1\x00meta``: until the commit point it
        keeps its pre-batch value, and after it the last group's wins."""
        stores = self._stopped(kind, "journal:commit")
        before = self._before(kind)
        assert stores.dedup.get("obj:1\x00meta") == before["dedup"]["obj:1\x00meta"]
        stores = self._stopped(kind, "journal:committed")
        assert _recover(stores)
        assert stores.dedup.get("obj:1\x00meta") == b"back again"
        assert _snapshot(stores) == self._after(kind)

    def test_altered_saved_slot_is_rollback_detected(self, kind):
        """A part the record names, altered: a typed error, nothing applied."""
        stores = self._stopped(kind, "journal:committed")
        part = f"{_PART}00000000"
        blob = bytearray(stores.content.get(part))
        blob[100] ^= 0x20
        stores.content.put(part, bytes(blob))
        with pytest.raises(RollbackDetected):
            WriteAheadJournal(stores, _ROOT_KEY).recover()
        state = _snapshot(stores)
        state["content"] = {k: v for k, v in state["content"].items() if not k.startswith("\x00journal:")}
        assert state == self._before(kind)

    def test_altered_value_not_yet_moved_is_rollback_detected(self, kind):
        """Two of the group's deletes are done, the third value is still in
        place: altering that value is overwritten by the re-apply, and
        altering the part is a typed error."""
        stores = self._stopped(kind, "journal:apply", nth=2)
        victim = _DEDUP_GROUP[2][1]
        assert stores.dedup.exists(victim) and not stores.dedup.exists(_DEDUP_GROUP[1][1])
        part = f"{_PART}00000000"
        stores.content.put(part, stores.content.get(part)[::-1])
        with pytest.raises(RollbackDetected):
            WriteAheadJournal(stores, _ROOT_KEY).recover()
        stores = self._stopped(kind, "journal:apply", nth=2)
        stores.dedup.put(victim, b"altered")
        assert _recover(stores)
        assert _snapshot(stores) == self._after(kind)

    def test_in_process_rollback_drops_the_spilled_groups(self, kind):
        stores = _stores(kind)
        _seed(stores)
        before = _snapshot(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        journal.open_epoch("doomed")
        base = journal.begin_member()
        journal.record(_DEDUP_GROUP)
        journal.record(_CONTENT_GROUP)
        journal.rollback_member(base)
        journal.rollback()
        assert _snapshot(stores) == before


_BIG = bytes(i % 251 for i in range(2 * 4096 + 100))  # three chunks


def _residue(server: SeGShareServer) -> list[str]:
    """Journal keys left on any store, and objects no record names."""
    stores = server.stores
    keys = [
        key
        for store in (stores.content, stores.group, stores.dedup)
        for key in store.keys()
        if key.startswith("\x00journal:")
    ]
    _, objects = object_state(server)
    referenced = {object_id for object_id, _ in stored_records(server.enclave.manager.dedup).values()}
    return keys + sorted(objects - referenced)


def _prime_big(server: SeGShareServer) -> None:
    prime(server)
    assert server.enclave.handler.put_file("alice", "/d/big", _BIG).status is Status.OK


def _remove_big(server: SeGShareServer) -> None:
    if not server.enclave.manager.exists("/d/big"):
        return  # a post-commit crash already removed it
    response = server.enclave.handler.handle("alice", Request(op=Op.REMOVE, args=("/d/big",)))
    assert response.status is Status.OK


@pytest.mark.parametrize("dedup", [False, True], ids=["inline", "dedup"])
class TestMultiChunkDeleteCrashes:
    """REMOVE of a three-chunk file: its pointer goes in the batch, its
    object after the commit point (the reclaim)."""

    def _crash_cells(self, site: str, dedup: bool, least: int):
        """Crash states of the removal: before each of the reclaim's object
        deletes (``journal:reclaim``), or after each applied write
        (``journal:apply``)."""
        steps = _remove_big_steps(site, dedup)
        assert len(steps) >= least, f"a three-chunk delete made only {len(steps)} {site} effects"
        for step in steps:
            server, plan = under_plan(lambda stores: build_server(stores, enable_dedup=dedup))
            _prime_big(server)
            plan.crash_after_effects(step)
            with pytest.raises(EnclaveCrashed):
                _remove_big(server)
            plan.detach()
            yield step, server

    def test_crash_between_entry_and_move(self, dedup):
        # Between the commit point and the object's deletes; the intent
        # rides in the member's redo record, which goes with the close.
        for step, server in self._crash_cells("journal:reclaim", dedup, least=1):
            server.restart_enclave()
            server.enclave.guard.verify_restored_state()
            manager = server.enclave.manager
            # Every journal:reclaim step lies past the commit point.
            assert not manager.exists("/d/big"), f"step {step}: committed removal lost"
            assert "/d/big" not in manager.read_dir("/d/").children
            assert server.stats()["engine"]["intents_recovered"] == 1
            assert _residue(server) == []
            assert manager.read_content("/keep") == b"other file"

    def test_crash_after_a_move(self, dedup):
        # A crash between two applied writes of the record is rolled
        # forward.  Every third applied write keeps the matrix affordable;
        # the unit-level classes above die before every single effect.
        for step, server in self._crash_cells("journal:apply", dedup, least=3):
            if step % 3:
                continue
            server.restart_enclave()
            server.enclave.guard.verify_restored_state()
            manager = server.enclave.manager
            if manager.exists("/d/big"):
                assert manager.read_content("/d/big") == _BIG, f"step {step}: torn"
            else:
                assert "/d/big" not in manager.read_dir("/d/").children
            assert manager.read_content("/keep") == b"other file"
            assert _residue(server) == []

    def test_tampered_saved_chunk_fails_recovery(self, dedup):
        """The reclaim intent naming the chunks is sealed in the member's
        redo record: altered, it fails recovery instead of deleting
        whatever it would name."""
        for _, server in self._crash_cells("journal:reclaim", dedup, least=1):
            store = server.stores.content
            key = _record_key(server.stores)
            blob = bytearray(store.get(key))
            blob[10] ^= 0x10
            store.put(key, bytes(blob))
            with pytest.raises(RollbackDetected):
                server.restart_enclave()
            return


def _remove_big_steps(site: str, dedup: bool) -> list[int]:
    """The removal's crash states where the old ``journal:reclaim`` (before
    an object key's delete) or ``journal:apply`` (after an applied write)
    sites stood."""
    probe, plan = under_plan(lambda stores: build_server(stores, enable_dedup=dedup))
    _prime_big(probe)
    start = len(plan.labels)
    _remove_big(probe)
    assert _residue(probe) == []
    labels = plan.labels[start:]
    if site == "journal:reclaim":
        return [k for k, label in enumerate(labels) if label.startswith("dedup:delete 'obj:")]
    return [k + 1 for k, label in enumerate(labels[:-1]) if "journal:" not in label]


def test_sharded_deployment_leaves_no_saved_key():
    """Through the shard router, a crash between the commit point and the
    reclaim leaves the object on the shards; restart completes the intent
    and no object or journal key is left on any shard."""
    options = SeGShareOptions(
        rollback="whole_fs", counter_kind="rote", rollback_buckets=8,
        enable_dedup=True,
    )
    backends = [InMemoryStore() for _ in range(3)]
    plan = FaultPlan()
    server = SeGShareServer(
        azure_wan_env(), _CA.public_key, stores=faulty_stores(StoreSet.sharded(backends), plan), options=options
    )
    _prime_big(server)
    object_id = stored_records(server.enclave.manager.dedup)[server.enclave.manager._pointer_target("/d/big")][0]

    def object_on_shards() -> list[str]:
        return [key for shard in backends for key in shard.keys() if object_id in key]

    plan.attach_platform(server.platform).crash_after_effects(_remove_big_steps("journal:reclaim", True)[0])
    with pytest.raises(EnclaveCrashed):
        _remove_big(server)
    plan.detach()
    # The metadata node, which carries chunk 0, and the value of the two others.
    assert len(object_on_shards()) == 2, "the crash should have caught the object whole"
    server.restart_enclave()
    server.enclave.guard.verify_restored_state()
    assert object_on_shards() == []
    assert not server.enclave.manager.exists("/d/big")
    assert not any("\x00journal:" in key for shard in backends for key in shard.keys())
    assert server.enclave.handler.put_file("alice", "/d/big", _BIG).status is Status.OK
    assert server.enclave.manager.read_content("/d/big") == _BIG


def _streamed(server: SeGShareServer, path: str) -> bytes:
    """What a GET of ``path`` streams to alice."""
    response = server.enclave.handler.handle("alice", Request(op=Op.GET, args=(path,)))
    assert isinstance(response, StreamingResponse), response
    return b"".join(response.chunks)


def _poison_with(server: SeGShareServer, plan: FaultPlan, mutate) -> None:
    """Run ``mutate`` with its commit point and its rollback both failing."""

    def rollback_fails(member_base: int) -> None:
        raise FaultError("part drop failed")

    journal = server.enclave.engine.journal
    journal.rollback_member = rollback_fails
    plan.fail_nth(nth=1, op="put", key="\x00journal:redo")  # the request's commit point
    mutate()
    del journal.rollback_member


def _poisoned_reads_then_restarts(server: SeGShareServer, path: str, content: bytes) -> None:
    """A poisoned enclave still serves ``path`` and quiesces; it refuses
    the next mutation, and a restart serves ``path`` again."""
    assert _streamed(server, path) == content
    server.enclave.engine.quiesce()
    assert server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/g/",))).status is Status.UNAVAILABLE
    server.restart_enclave()
    server.enclave.guard.verify_restored_state()
    manager = server.enclave.manager
    assert not manager.exists("/e/") and not manager.exists("/g/")
    assert manager.read_content(path) == content
    response = server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/g/",)))
    assert response.status is Status.OK


def test_a_failed_rollback_refuses_later_mutations_until_restart():
    """An abort that cannot drop the member's spilled parts poisons the journal.
    A later mutation must answer UNAVAILABLE, not run over enclave state
    the abort left half-rewound; reads go on, a restart starts clean, and
    the aborted request left nothing behind."""
    plan = FaultPlan()
    server = SeGShareServer(
        azure_wan_env(), _CA.public_key, stores=faulty_stores(StoreSet.in_memory(), plan),
        options=SeGShareOptions(rollback="whole_fs", counter_kind="rote", rollback_buckets=8),
    )
    prime(server)
    handler = server.enclave.handler

    def mutate() -> None:
        assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",))).status is Status.RETRY

    _poison_with(server, plan, mutate)
    _poisoned_reads_then_restarts(server, "/d/f", b"victim content")


def test_a_poisoned_enclave_refuses_before_the_counter_or_the_anchor(monkeypatch):
    """The refusal comes first: a mutation a poisoned journal turns away
    makes no ROTE call and reads no anchor record."""
    plan = FaultPlan()
    server = build_server(faulty_stores(StoreSet.in_memory(), plan))
    prime(server)
    handler = server.enclave.handler

    def mutate() -> None:
        assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",))).status is Status.RETRY

    _poison_with(server, plan, mutate)
    calls: list[str] = []
    rote, anchor = getattr(server.platform, "_segshare_counter_rote"), server.enclave.engine.anchor
    for owner, name in ((rote, "read"), (rote, "increment"), (anchor, "read")):
        monkeypatch.setattr(owner, name, lambda *args, n=name: calls.append(n))
    response = handler.handle("alice", Request(op=Op.PUT_DIR, args=("/g/",)))
    assert response.status is Status.UNAVAILABLE
    assert calls == []


def test_a_failed_rollback_keeps_an_earlier_member_of_its_epoch():
    """On a parallel clock the poisoned member shares its epoch with one
    that committed: its guard roots are still pending in enclave memory,
    and the reads the poisoned enclave serves verify against them."""
    plan = FaultPlan()
    server = build_parallel_server(faulty_stores(StoreSet.in_memory(), plan))
    prime(server)
    engine, handler = server.enclave.engine, server.enclave.handler
    engine.quiesce()
    epochs = engine.group_commit.stats.epochs
    t0 = server.env.clock.now()

    def first() -> None:
        assert handler.put_file("alice", "/d/a", b"member one").status is Status.OK

    def second() -> None:
        assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",))).status is Status.RETRY

    server.switchless.dispatch(first, arrival=t0)
    _poison_with(server, plan, lambda: server.switchless.dispatch(second, arrival=t0))
    assert engine.group_commit.stats.epochs == epochs  # the two shared one epoch, never closed
    _poisoned_reads_then_restarts(server, "/d/a", b"member one")


def test_a_commit_that_cannot_be_applied_stands_after_restart():
    """Past its record a member stands: a store fault applying it is rolled
    forward at once, and a second one stops the enclave rather than serve
    the store half-applied — the restart re-applies the record."""
    plan = FaultPlan()
    server = SeGShareServer(
        azure_wan_env(), _CA.public_key, stores=faulty_stores(StoreSet.in_memory(), plan),
        options=SeGShareOptions(rollback="whole_fs", counter_kind="rote", rollback_buckets=8),
    )
    prime(server)
    handler = server.enclave.handler
    plan.fail_nth(nth=2, op="put").fail_nth(nth=3, op="put")  # the record lands, then two applies fail
    with pytest.raises(EnclaveCrashed):
        handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",)))
    server.restart_enclave()
    server.enclave.guard.verify_restored_state()
    manager = server.enclave.manager
    assert manager.exists("/e/") and not manager.exists("/g/")
    assert server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/g/",))).status is Status.OK


class TestDegradedMode:
    def test_quorum_loss_degrades_to_read_only(self):
        server = build_server()
        prime(server)
        counter = getattr(server.platform, "_segshare_counter_rote")
        counter.set_replica_up(0, False)
        counter.set_replica_up(1, False)

        handler = server.enclave.handler
        # Reads still answer (degraded: hash chain verified, counter skipped).
        listing = handler.handle("alice", Request(op=Op.GET, args=("/d/",)))
        assert listing.status is Status.OK
        assert server.enclave.guard.anchor.degraded_reads > 0
        # Writes refuse with a typed UNAVAILABLE, not a crash or corruption.
        response = handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",)))
        assert response.status is Status.UNAVAILABLE
        assert not server.enclave.manager.exists("/e/")

        counter.set_replica_up(0, True)
        counter.set_replica_up(1, True)
        response = handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",)))
        assert response.status is Status.OK


class TestCloseFreshness:
    """An epoch opens on the latest anchor record without asking the TEE
    inside the commit point; the close's one increment proves that record
    fresh, and a retried close names the increment it already made."""

    @staticmethod
    def _world(stores: StoreSet | None = None) -> SeGShareServer:
        server = build_parallel_server(stores)
        prime(server)
        server.enclave.engine.quiesce()
        return server

    @staticmethod
    def _open_epoch(server: SeGShareServer, *paths: str) -> None:
        handler = server.enclave.handler
        t0 = server.env.clock.now()
        for path in paths:

            def thunk(p=path):
                assert handler.put_file("alice", p, b"burst " + p.encode()).status is Status.OK

            server.switchless.dispatch(thunk, arrival=t0)
        assert server.enclave.engine.journal.epoch is not None

    def test_a_forked_instances_increment_fails_the_close(self):
        server = self._world()
        anchor = server.enclave.guard.anchor
        rote = getattr(server.platform, "_segshare_counter_rote")
        self._open_epoch(server, "/d/new")
        anchored, writes = anchor.read(), anchor.writes
        # A second instance over the same counter closes an epoch of its own.
        rote.increment(server.enclave, COUNTER_ID)
        with pytest.raises(RollbackDetected):
            server.enclave.engine.quiesce()
        assert anchor.writes == writes
        assert anchor.read() == anchored
        assert rote.read(server.enclave, COUNTER_ID) == anchored[1] + 2

    @pytest.mark.parametrize("cache", [256 * 1024, None], ids=["cached", "uncached"])
    def test_an_epoch_opens_on_the_record_its_enclave_last_wrote(self, monkeypatch, cache):
        """With a metadata cache, no store read at the open while the
        enclave remembers the record it last wrote; once it forgets (a
        restore, a takeover, a peer's close) the next open reads the record
        again.  Without one, as in an uncached cluster, every open reads."""
        server = build_parallel_server(metadata_cache_bytes=cache)
        prime(server)
        server.enclave.engine.quiesce()
        engine, anchor = server.enclave.engine, server.enclave.guard.anchor
        read, begin, reads = anchor.read, anchor.begin_batch, []

        def counted_begin():
            with monkeypatch.context() as m:
                m.setattr(anchor, "read", lambda: reads.append(1) or read())
                return begin()

        monkeypatch.setattr(anchor, "begin_batch", counted_begin)
        self._open_epoch(server, "/d/one")
        engine.quiesce()
        assert len(reads) == (0 if cache else 1)
        engine.drop_derived_state()
        with engine.transaction("empty"):
            pass
        engine.quiesce()
        assert len(reads) == (1 if cache else 2)
        anchor.verify_fresh()

    def test_an_old_record_served_to_the_open_refuses_the_restart(self, monkeypatch):
        """The open asks the TEE nothing, so an older record the host serves
        it is caught by the close's count, which has then spent an
        increment: the close anchors nothing, and a restart finds the redo
        record opened two behind the TEE and refuses, even with the host
        serving the latest record again (a probe at the open would have
        refused the write before counting)."""
        server = self._world()
        anchor = server.enclave.guard.anchor
        rote = getattr(server.platform, "_segshare_counter_rote")
        older = anchor.read()
        self._open_epoch(server, "/d/first")
        server.enclave.engine.quiesce()
        latest = anchor.read()
        assert latest[1] == older[1] + 1
        opened = anchor.begin_batch

        def open_on_the_older_record():
            anchor.forget()
            with monkeypatch.context() as host:
                host.setattr(anchor, "read", lambda: older)
                return opened()

        monkeypatch.setattr(anchor, "begin_batch", open_on_the_older_record)
        self._open_epoch(server, "/d/second")
        with pytest.raises(RollbackDetected):
            server.enclave.engine.quiesce()
        assert anchor.read() == latest
        assert rote.read(server.enclave, COUNTER_ID) == latest[1] + 1
        with pytest.raises(RollbackDetected):
            server.restart_enclave()

    def test_the_commit_point_reads_no_counter_and_a_close_counts_once(self, monkeypatch):
        plan = FaultPlan()
        server = self._world(faulty_stores(StoreSet.in_memory(), plan))
        engine, clock = server.enclave.engine, server.env.clock
        rote = getattr(server.platform, "_segshare_counter_rote")
        held: list[str] = []
        exclusive, read, increment = clock.exclusive, rote.read, rote.increment
        reads_in_commit, increments = [], []

        @contextmanager
        def tracked(name, account="serialize-wait"):
            with exclusive(name, account):
                held.append(name)
                try:
                    yield
                finally:
                    held.remove(name)

        def counted_read(*args):
            reads_in_commit.append("journal-commit" in held)
            return read(*args)

        def counted_increment(*args):
            increments.append(args)
            return increment(*args)

        monkeypatch.setattr(clock, "exclusive", tracked)
        monkeypatch.setattr(rote, "read", counted_read)
        monkeypatch.setattr(rote, "increment", counted_increment)
        stats = engine.group_commit.stats
        epochs = stats.epochs
        for wave in range(4):  # each wave's opener closes the wave before
            self._open_epoch(server, *(f"/d/w{wave}-{k}" for k in range(3)))
        engine.quiesce()
        assert stats.epochs - epochs == 4 and stats.max_members >= 3
        assert reads_in_commit and not any(reads_in_commit)
        assert len(increments) == 4

        # A close whose anchor put fails after the increment: the retry
        # names that increment and makes none.
        self._open_epoch(server, "/d/retried")
        plan.fail_nth(nth=1, op="put", key="rb:anchor")
        with pytest.raises(FaultError):
            engine.quiesce()
        assert len(increments) == 5
        engine.quiesce()
        assert len(increments) == 5
        anchor = server.enclave.guard.anchor
        assert anchor.read()[1] == read(server.enclave, COUNTER_ID)
        anchor.verify_fresh()


def test_seeded_crash_smoke():
    """CI knob: one randomized crash/recover cycle per seed.

    The seed comes from ``SEGSHARE_FAULT_SEED`` so the CI fault-matrix job
    can sweep several seeds cheaply; the default exercises seed 0.
    """
    seed = int(os.environ.get("SEGSHARE_FAULT_SEED", "0"))
    pre, post, report = count("uncached", "move")
    crash_state("uncached", "move", random.Random(seed).randrange(report.effects + 1), (pre, post))
