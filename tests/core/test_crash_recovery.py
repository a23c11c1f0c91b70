"""Crash-consistency: the write-ahead journal under exhaustive crash matrices.

Every mutating request runs as a journaled batch; these tests kill the
enclave at *every individual journal step* of representative operations,
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

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.journal import JournaledStore, WriteAheadJournal
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, FaultError, RollbackDetected
from repro.faults import FaultPlan, FaultyStore, faulty_stores
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from tests.support.crashpoints import StopHere as _StopHere
from tests.support.crashpoints import stop_at as _stop_at

#: One CA for the whole module — its RSA key generation dominates setup.
_CA = CertificateAuthority(key_bits=1024)


def build_server(**option_overrides) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        **option_overrides,
    )
    return SeGShareServer(azure_wan_env(), _CA.public_key, options=options)


def build_parallel_server(**option_overrides) -> SeGShareServer:
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
    return SeGShareServer(parallel_env(), _CA.public_key, options=options)


def prime(server: SeGShareServer) -> None:
    """Baseline state every matrix iteration starts from."""
    handler = server.enclave.handler
    assert handler.put_file("alice", "/keep", b"other file").status is Status.OK
    assert (
        handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status
        is Status.OK
    )
    assert handler.put_file("alice", "/d/f", b"victim content").status is Status.OK


def count_journal_steps(run_op, **overrides) -> int:
    """Dry-run ``run_op`` and count its journal crashpoints.

    The never-firing rule keeps the plan armed so every ``journal:*``
    crashpoint reports in; counting goes through the rule's own matched
    count, since other sites (``anchor:*``, and ``ecall:*`` when driving
    through an enclave handle) also bump the plan's global counter.
    """
    server = build_server(**overrides)
    prime(server)
    plan = FaultPlan().crash_at_point(nth=10**9, site_prefix="journal:")
    plan.attach_platform(server.platform)
    run_op(server)
    plan.detach()
    steps = plan.seen_crashpoints("journal:")
    assert steps > 0, "operation did not touch the journal"
    return steps


def crash_restart_check(run_op, step: int, check_outcome, **overrides) -> None:
    """Kill the enclave at journal step ``step`` of ``run_op``; verify."""
    server = build_server(**overrides)
    prime(server)
    plan = FaultPlan().crash_at_point(nth=step, site_prefix="journal:")
    plan.attach_platform(server.platform)
    with pytest.raises(EnclaveCrashed):
        run_op(server)
    plan.detach()

    server.restart_enclave()
    # Recovery already verified internally; verifying again proves the
    # restored state stands on its own (anchor, counter, storage agree).
    server.enclave.guard.verify_restored_state()
    assert server.enclave.manager.read_content("/keep") == b"other file"
    check_outcome(server)
    check_dedup_records(server)
    # The server must be fully operational again.
    run_op(server)


#: Every content path the operations under test create.
_PATHS = ("/keep", "/d/f", "/d/new", "/f2", "/d/g1", "/d/g2")


def object_state(server: SeGShareServer) -> tuple[dict[str, tuple[str, int]], set[str]]:
    """The in-enclave object entries and the object ids on the store."""
    keys = server.stores.dedup.keys()
    objects = {key.partition("\x00")[0] for key in keys if key.startswith("obj:")}
    return dict(server.enclave.manager.dedup._index), objects


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
    assert {key.partition("\x00")[0][4:] for key in keys if key.startswith("idx:")} == set(dedup._index)
    index, objects = object_state(server)
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


def run_move_recording_objects(server: SeGShareServer) -> None:
    """``run_move``, remembering the object state the move starts from."""
    server.objects_before_move = object_state(server)
    run_move(server)


def check_move_repoints(server: SeGShareServer) -> None:
    """A move re-points: whichever side of the crash recovery lands on,
    every refcount and every stored object is as before the move."""
    check_move(server)
    assert object_state(server) == server.objects_before_move


def run_remove(server: SeGShareServer) -> None:
    if not server.enclave.manager.exists("/d/f"):
        return
    response = server.enclave.handler.handle(
        "alice", Request(op=Op.REMOVE, args=("/d/f",))
    )
    assert response.status is Status.OK


def check_remove(server: SeGShareServer) -> None:
    manager = server.enclave.manager
    if manager.exists("/d/f"):
        assert manager.read_content("/d/f") == b"victim content"
        assert "/d/f" in manager.read_dir("/d/").children
    else:
        assert "/d/f" not in manager.read_dir("/d/").children


def run_put(server: SeGShareServer) -> None:
    response = server.enclave.handler.put_file("alice", "/d/new", b"fresh bytes")
    assert response.status is Status.OK


def check_put(server: SeGShareServer) -> None:
    manager = server.enclave.manager
    if manager.exists("/d/new"):
        assert manager.read_content("/d/new") == b"fresh bytes"
        assert "/d/new" in manager.read_dir("/d/").children
    else:
        assert "/d/new" not in manager.read_dir("/d/").children


def run_overwrite(server: SeGShareServer) -> None:
    response = server.enclave.handler.put_file("alice", "/d/f", b"version two")
    assert response.status is Status.OK


def check_overwrite(server: SeGShareServer) -> None:
    content = server.enclave.manager.read_content("/d/f")
    assert content in (b"victim content", b"version two")


#: Sized so the whole working set fits: every metadata object the matrix
#: operations touch is cache-resident when the crash hits, which is the
#: worst case for stale-entry bugs.
_CACHED = {"metadata_cache_bytes": 256 * 1024}

_MATRIX = {
    "move": (run_move, check_move, {}),
    "remove": (run_remove, check_remove, {}),
    "put_new": (run_put, check_put, {}),
    "overwrite": (run_overwrite, check_overwrite, {}),
    "put_dedup": (run_put, check_put, {"enable_dedup": True}),
    # An overwrite writes the adopted record and removes the released one;
    # a remove removes its record.
    "overwrite_dedup": (run_overwrite, check_overwrite, {"enable_dedup": True}),
    "remove_dedup": (run_remove, check_remove, {"enable_dedup": True}),
    "move_dedup": (run_move_recording_objects, check_move_repoints, {"enable_dedup": True}),
    "move_hidden": (run_move, check_move, {"hide_paths": True}),
    # Cached variants: the enclave-resident metadata cache must never let
    # a value written by the rolled-back batch survive the crash — the
    # check functions re-read everything through the manager (and thus
    # through the cache) after recovery.
    "move_cached": (run_move, check_move, dict(_CACHED)),
    "overwrite_cached": (run_overwrite, check_overwrite, dict(_CACHED)),
    "put_dedup_cached": (run_put, check_put, {"enable_dedup": True, **_CACHED}),
}


@pytest.mark.parametrize("name", sorted(_MATRIX))
def test_crash_matrix(name):
    """Kill the enclave at every journal step of the operation; each crash
    must recover to a verified, all-or-nothing state."""
    run_op, check_outcome, overrides = _MATRIX[name]
    steps = count_journal_steps(run_op, **overrides)
    for step in range(1, steps + 1):
        crash_restart_check(run_op, step, check_outcome, **overrides)


class TestGroupMutations:
    @staticmethod
    def _prime_groups(server: SeGShareServer) -> None:
        handler = server.enclave.handler
        assert (
            handler.handle(
                "alice", Request(op=Op.ADD_USER, args=("alice", "eng"))
            ).status
            is Status.OK
        )
        assert (
            handler.handle("alice", Request(op=Op.ADD_USER, args=("bob", "eng"))).status
            is Status.OK
        )

    @staticmethod
    def _run_revoke(server: SeGShareServer) -> None:
        if "eng" not in server.enclave.access.user_groups("bob"):
            return
        response = server.enclave.handler.handle(
            "alice", Request(op=Op.RMV_USER, args=("bob", "eng"))
        )
        assert response.status is Status.OK

    def test_revocation_crash_is_all_or_nothing(self):
        """Crashing mid-revocation must not leave membership half-updated
        — the group store and the content store recover together."""
        server = build_server()
        prime(server)
        self._prime_groups(server)
        plan = FaultPlan().crash_at_point(nth=10**9, site_prefix="journal:")
        plan.attach_platform(server.platform)
        self._run_revoke(server)
        plan.detach()
        steps = plan.seen_crashpoints("journal:")
        assert steps > 0

        for step in range(1, steps + 1):
            server = build_server()
            prime(server)
            self._prime_groups(server)
            # Skip past the priming's own journal steps.
            plan = FaultPlan().crash_at_point(nth=step, site_prefix="journal:")
            plan.attach_platform(server.platform)
            with pytest.raises(EnclaveCrashed):
                self._run_revoke(server)
            plan.detach()
            server.restart_enclave()
            server.enclave.guard.verify_restored_state()
            access = server.enclave.access
            assert "eng" in access.user_groups("alice")
            # bob is either still in (rolled back) or fully out — and the
            # server still serves both outcomes.
            self._run_revoke(server)
            assert "eng" not in server.enclave.access.user_groups("bob")


    @staticmethod
    def _bob_reads(server: SeGShareServer) -> bool:
        response = server.enclave.handler.handle("bob", Request(op=Op.GET, args=("/d/f",)))
        return getattr(response, "status", Status.OK) is Status.OK

    def _revoke_then_interrupt_unrelated_upload(self, interrupt: str, swap: bool):
        """Share ``/d/f`` with eng, revoke bob, then interrupt an unrelated
        upload mid-batch: ``"crash"`` kills the enclave at a journal step
        (the host then has the store to itself until the restart),
        ``"fault"`` fails one store put (the live enclave rolls the batch
        back and re-anchors).  With ``swap`` the host first writes the
        group store's pre-revocation data objects back."""
        plan = FaultPlan()
        server = SeGShareServer(
            azure_wan_env(),
            _CA.public_key,
            stores=faulty_stores(StoreSet.in_memory(), plan),
            options=SeGShareOptions(
                rollback="whole_fs", counter_kind="rote", rollback_buckets=8
            ),
        )
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
            plan.fail_nth(nth=3, op="put", store="content")
            assert handler.put_file("alice", "/unrelated", b"x").status is Status.RETRY
            return server
        plan.crash_at_point(nth=2, site_prefix="journal:").attach_platform(server.platform)
        with pytest.raises(EnclaveCrashed):
            handler.put_file("alice", "/unrelated", b"x")
        plan.detach()
        if swap:
            for key, value in pre_revocation.items():
                group.put(key, value)
        return server

    def test_member_list_swapped_during_crash_is_detected(self):
        """Immediate revocation must survive a crash: recovery re-anchors
        the group store only after checking it is one consistent
        snapshot, so a pre-revocation member list slipped in while the
        enclave was down is a detected rollback — not a blessed state in
        which the revoked user reads the file again."""
        server = self._revoke_then_interrupt_unrelated_upload("crash", swap=True)
        with pytest.raises(RollbackDetected):
            server.restart_enclave()

    def test_member_list_swapped_before_an_aborted_request_stays_revoked(self):
        """The same swap against a live enclave: an aborted request
        re-anchors the stored guard node as it is — it must not rebuild
        the node from (swapped) data and bless it."""
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

    def _armed_server(self, **options) -> SeGShareServer:
        server = build_parallel_server(**options)
        prime(server)
        # prime() drives the handler directly, which also opens an epoch
        # on a parallel clock; close it so the matrix enumerates only the
        # pair's own steps.
        server.enclave.engine.quiesce()
        return server

    def _count(self, prefix: str, **options) -> int:
        server = self._armed_server(**options)
        plan = FaultPlan().crash_at_point(nth=10**9, site_prefix=prefix)
        plan.attach_platform(server.platform)
        self._run_epoch_pair(server)
        plan.detach()
        # Not vacuous: the two uploads really did share one epoch.
        assert server.enclave.engine.group_commit.stats.histogram.get("2", 0) >= 1
        return plan.seen_crashpoints(prefix)

    @pytest.mark.parametrize("prefix", ["journal:", "anchor:"])
    def test_epoch_crash_matrix(self, prefix):
        self._matrix(prefix)

    @pytest.mark.parametrize("prefix", ["journal:", "anchor:"])
    def test_epoch_crash_matrix_with_dedup(self, prefix):
        """Each member seals its own records before its commit record."""
        self._matrix(prefix, enable_dedup=True)

    def _matrix(self, prefix: str, **options) -> None:
        steps = self._count(prefix, **options)
        assert steps > 0, f"epoch pair hit no {prefix} crashpoints"
        for step in range(1, steps + 1):
            server = self._armed_server(**options)
            plan = FaultPlan().crash_at_point(nth=step, site_prefix=prefix)
            plan.attach_platform(server.platform)
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
        assert not server.stores.content.exists("\x00journal:batch")
        assert not any(
            key.startswith("\x00journal:entry:") for key in server.stores.content.keys()
        )

    def test_repeated_crash_recover_cycles(self):
        server = build_server()
        prime(server)
        for step in (2, 3, 4):
            plan = FaultPlan().crash_at_point(nth=step, site_prefix="journal:")
            plan.attach_platform(server.platform)
            with pytest.raises(EnclaveCrashed):
                run_move(server)
            plan.detach()
            server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        check_move(server)
        run_move(server)
        assert server.enclave.manager.read_content("/f2") == b"victim content"

    @staticmethod
    def _faulty_server(enable_dedup: bool) -> tuple[SeGShareServer, FaultPlan]:
        """A primed server whose stores report to a live fault plan."""
        plan = FaultPlan()
        options = SeGShareOptions(
            rollback="whole_fs", counter_kind="rote", rollback_buckets=8,
            enable_dedup=enable_dedup,
        )
        server = SeGShareServer(
            azure_wan_env(), _CA.public_key,
            stores=faulty_stores(StoreSet.in_memory(), plan), options=options,
        )
        prime(server)
        plan.attach_platform(server.platform)
        return server, plan

    @pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
    def test_dedup_orphans_swept_on_recovery(self, enable_dedup):
        """Die at every object-store operation of a three-chunk upload —
        streaming its chunks, closing the object, adopting it, sealing its
        record — and restart: the file is whole or absent, and every stored
        object is referenced."""
        content = b"n" * (3 * 4096 + 9)

        def upload(server: SeGShareServer) -> None:
            assert server.enclave.handler.put_file("alice", "/d/new", content).status is Status.OK

        server, plan = self._faulty_server(enable_dedup)
        before = plan.store_ops
        upload(server)
        total = plan.store_ops - before  # an upper bound on the dedup-store ops

        crashes = 0
        for nth in range(1, total + 1):
            server, plan = self._faulty_server(enable_dedup)
            plan.crash_after_ops(nth=nth, store="dedup")
            try:
                upload(server)
            except EnclaveCrashed:
                crashes += 1
            else:
                break  # past the last dedup-store operation
            plan.detach()
            server.restart_enclave()
            server.enclave.guard.verify_restored_state()
            manager = server.enclave.manager
            if manager.exists("/d/new"):
                assert manager.read_content("/d/new") == content
            check_dedup_records(server)
        assert crashes > 4, "the upload passed too few object-store operations"

    @staticmethod
    def _unindexed_objects(server: SeGShareServer) -> set[str]:
        indexed = {entry[0] for entry in server.enclave.manager.dedup._index.values()}
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
        assert not server.stores.content.exists("\x00journal:batch")

        server.restart_enclave()  # the crash
        server.enclave.guard.verify_restored_state()
        assert self._unindexed_objects(server) == set()
        assert not server.enclave.manager.exists("/d/streamed")
        assert server.enclave.manager.read_content("/d/f") == b"victim content"
        # The path is free again.
        response = server.enclave.handler.put_file("alice", "/d/streamed", b"second try")
        assert response.status is Status.OK

    @pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
    def test_abort_crashed_at_any_store_op_is_swept_on_restart(self, enable_dedup):
        """`abort` seals the temporary object and removes it, metadata
        first — outside any journal batch.  Die at each of its dedup-store
        operations, including between the meta delete and the last chunk
        delete, where the leftover chunks have no metadata to be found by."""

        def aborting_server(crash_at: int | None):
            server, plan = self._faulty_server(enable_dedup)
            sink = server.enclave.handler.open_upload("alice", "/d/aborted")
            sink.write(b"a" * (2 * 4096 + 1))
            if crash_at is not None:
                plan.crash_after_ops(nth=crash_at, store="dedup")
            return server, plan, sink

        server, plan, sink = aborting_server(None)
        before = plan.store_ops
        sink.abort()
        total = plan.store_ops - before  # an upper bound on the dedup-store ops
        assert self._unindexed_objects(server) == set()

        headless = 0
        for nth in range(1, total + 1):
            server, plan, sink = aborting_server(nth)
            try:
                sink.abort()
            except EnclaveCrashed:
                pass
            else:
                break  # past the last dedup-store operation
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
        assert (
            handler.handle("alice", Request(op=Op.MOVE, args=("/d/f", "/f2"))).status
            is Status.OK
        )
        ops_per_move = plan.store_ops - ops_before
        assert (
            handler.handle("alice", Request(op=Op.MOVE, args=("/f2", "/d/f"))).status
            is Status.OK
        )

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


# -- pre-images of deleted values ----------------------------------------------------
#
# Deleting a present key copies its value into the undo entry, like an
# overwrite; the value is then deleted in place.  The unit-level classes
# drive a bare journal over three stores and crash it at *every store
# operation* (finer than the crashpoints, and the only way to die inside a
# restore or a sweep, which carry none).  A deleting batch's entries are
# sealed, so an altered, swapped or cut entry is a typed error.

_ENTRY = "\x00journal:entry:"
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


def _views(stores: StoreSet, journal: WriteAheadJournal) -> list[JournaledStore]:
    raw = (stores.content, stores.group, stores.dedup)
    return [JournaledStore(store, journal, tag) for tag, store in enumerate(raw)]


def _run_batch(stores: StoreSet, crash_hook=None, done: list | None = None) -> None:
    """One epoch of one member mixing all three entry kinds around a
    multi-chunk delete; ``done`` learns when the member's record is stored."""
    journal = WriteAheadJournal(stores, _ROOT_KEY, crash_hook=crash_hook)
    content, group, dedup = _views(stores, journal)
    journal.open_epoch("remove-big")
    base = journal.begin_member()
    content.put("/edit", b"new" * 60)  # copied pre-image
    for key in _object("obj:1", 10):
        dedup.delete(key)  # copied pre-images, one per chunk and the meta
    group.delete("members")  # a delete on another store
    content.put("/fresh", b"f" * 10)  # absent tombstone
    dedup.put("obj:1\x00meta", b"re-created inside the batch")
    journal.commit_member(base, b"", b"", 1, "remove-big")
    if done is not None:
        done.append(1)
    journal.close_epoch()


def _recover(stores: StoreSet) -> bool:
    journal = WriteAheadJournal(stores, _ROOT_KEY)
    recovered = journal.recover_restore()
    journal.recover_finish()
    return recovered


def _count_ops(kind: str, run) -> int:
    plan = FaultPlan()
    stores = _stores(kind, plan)
    _seed(stores)
    before = plan.store_ops
    run(stores)
    return plan.store_ops - before


def _crashed_world(kind: str, run, nth: int) -> tuple[StoreSet, FaultPlan]:
    """Seed a world, then kill ``run`` as its ``nth`` store operation begins."""
    plan = FaultPlan()
    stores = _stores(kind, plan)
    _seed(stores)
    plan.crash_after_ops(nth)
    with pytest.raises(EnclaveCrashed):
        run(stores)
    return stores, plan


@pytest.mark.parametrize("kind", ["separate", "sharded"])
class TestMovedPreImages:
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
        """A delete copies the value into its entry and deletes it in place."""
        stores = _stores(kind)
        _seed(stores)
        with pytest.raises(_StopHere):
            _run_batch(stores, crash_hook=_stop_at("journal:commit"))
        deleted = [key for key in _object("obj:1", 10) if key != "obj:1\x00meta"]
        assert not any(stores.dedup.exists(key) for key in deleted)
        assert sorted(_journal_keys(stores)) == ["\x00journal:batch"] + [f"{_ENTRY}{i:08d}" for i in range(7)]
        entries = [key for key in stores.content.keys() if key.startswith(_ENTRY)]
        # Seven entries: the three chunks' copies are among them.
        assert sum(stores.content.size(key) for key in entries) > 3 * _CHUNK

    def test_in_process_rollback_moves_everything_back(self, kind):
        stores = _stores(kind)
        _seed(stores)
        before = _snapshot(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY, crash_hook=_stop_at("journal:commit"))
        content, group, dedup = _views(stores, journal)
        journal.open_epoch("doomed")
        journal.begin_member()
        for key in _object("obj:2", 20):
            dedup.delete(key)
        content.delete("/keep")
        journal.rollback()
        journal.close_epoch()
        assert _snapshot(stores) == before

    def test_crash_at_every_store_op_is_all_or_nothing(self, kind):
        """Covers dying after the entry put and before the delete, and
        anywhere inside the post-commit sweep and the close."""
        before, after = self._end_states(kind)
        total = _count_ops(kind, _run_batch)
        assert total > 40
        for nth in range(1, total + 1):
            done: list[int] = []
            stores, _ = _crashed_world(kind, lambda s, d=done: _run_batch(s, done=d), nth)
            _recover(stores)
            state = _snapshot(stores)
            # A crash inside commit_member lands on either side of its record.
            allowed = [after] if done else [before, after]
            assert state in allowed, f"store op {nth}: torn state or committed member lost"
            assert _journal_keys(stores) == [], f"store op {nth}: journal residue"

    def test_crash_inside_the_restore_is_repaired_by_the_next(self, kind):
        def until_commit(stores: StoreSet) -> None:
            with pytest.raises(_StopHere):
                _run_batch(stores, crash_hook=_stop_at("journal:commit"))

        reference = _stores(kind)
        _seed(reference)
        before = _snapshot(reference)
        until_commit(reference)
        plan = FaultPlan()
        counting = _stores(kind, plan)
        _seed(counting)
        until_commit(counting)
        ops_before = plan.store_ops
        assert _recover(counting)
        recovery_ops = plan.store_ops - ops_before
        assert _snapshot(counting) == before
        for nth in range(1, recovery_ops + 1):
            plan = FaultPlan()
            stores = _stores(kind, plan)
            _seed(stores)
            until_commit(stores)
            plan.crash_after_ops(nth)
            with pytest.raises(EnclaveCrashed):
                _recover(stores)
            _recover(stores)
            assert _snapshot(stores) == before, f"recovery op {nth}: not the pre-batch state"
            assert _journal_keys(stores) == []

    @pytest.mark.parametrize("attack", ["tamper", "swap", "delete", "replace-unmoved"])
    def test_altered_saved_value_is_rollback_detected(self, kind, attack):
        """The copy of a deleted chunk is sealed in its entry: the entry
        altered, swapped with another, cut short (``delete``) or replaced
        by another journal record is a typed error, never a restore."""
        stores = _stores(kind)
        _seed(stores)
        with pytest.raises(_StopHere):
            _run_batch(stores, crash_hook=_stop_at("journal:commit"))
        # Entries 1-3 hold the copies of obj:1's three chunks.
        first, second = f"{_ENTRY}00000001", f"{_ENTRY}00000002"
        assert stores.content.size(first) > _CHUNK
        if attack == "tamper":
            blob = bytearray(stores.content.get(first))
            blob[len(blob) // 2] ^= 1
            stores.content.put(first, bytes(blob))
        elif attack == "swap":
            a, b = stores.content.get(first), stores.content.get(second)
            stores.content.put(first, b)
            stores.content.put(second, a)
        elif attack == "delete":
            stores.content.put(first, stores.content.get(first)[:-100])
        else:
            stores.content.put(first, stores.content.get("\x00journal:batch"))
        with pytest.raises(RollbackDetected):
            WriteAheadJournal(stores, _ROOT_KEY).recover_restore()


def _run_epoch(stores: StoreSet, done: list[int], crash_hook=None) -> None:
    """Two members of one group-commit epoch, each deleting an object."""
    journal = WriteAheadJournal(stores, _ROOT_KEY, crash_hook=crash_hook)
    content, _, dedup = _views(stores, journal)
    journal.open_epoch("epoch")
    for member, (object_id, fill) in enumerate((("obj:1", 10), ("obj:2", 20)), start=1):
        base = journal.begin_member()
        for key in _object(object_id, fill):
            dedup.delete(key)
        content.put("/edit", b"member %d" % member)
        journal.commit_member(base, b"", b"", member, f"m{member}")
        done.append(member)
    journal.close_epoch()


@pytest.mark.parametrize("kind", ["separate", "sharded"])
class TestMovedPreImagesInEpochs:
    def _states(self, kind: str) -> list[dict]:
        """The state after 0, 1 and 2 committed members."""
        states = []
        for members in range(3):
            stores = _stores(kind)
            _seed(stores)
            if members:
                # One member: stop as the second reaches its commit and let
                # recovery undo it.  Two: run the epoch to its close.
                hook = _stop_at("journal:commit", nth=members + 1) if members < 2 else None
                try:
                    _run_epoch(stores, [], crash_hook=hook)
                except _StopHere:
                    pass
                _recover(stores)
            states.append(_snapshot(stores))
        assert states[0] != states[1] != states[2]
        return states

    def test_crash_at_every_store_op_keeps_each_member_whole(self, kind):
        """Entries below the last record's watermark belong to committed
        members — left by a sweep that died — and must be swept, never
        restored; those above it are the in-flight member's and are
        restored."""
        states = self._states(kind)
        total = _count_ops(kind, lambda stores: _run_epoch(stores, []))
        for nth in range(1, total + 1):
            done: list[int] = []
            stores, _ = _crashed_world(kind, lambda s, d=done: _run_epoch(s, d), nth)
            _recover(stores)
            state = _snapshot(stores)
            # A crash inside commit_member lands on either side of its record.
            allowed = states[len(done) : len(done) + 2]
            assert state in allowed, f"store op {nth}: member torn or lost"
            assert _journal_keys(stores) == [], f"store op {nth}: journal residue"

    def test_member_rollback_moves_back_only_its_own_values(self, kind):
        states = self._states(kind)
        stores = _stores(kind)
        _seed(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        content, _, dedup = _views(stores, journal)
        journal.open_epoch("epoch")
        base = journal.begin_member()
        for key in _object("obj:1", 10):
            dedup.delete(key)
        content.put("/edit", b"member 1")
        journal.commit_member(base, b"", b"", 1, "m1")
        base = journal.begin_member()
        for key in _object("obj:2", 20):
            dedup.delete(key)
        journal.rollback_member(base)
        assert stores.dedup.get("obj:2\x00chunk\x000") == _object("obj:2", 20)["obj:2\x00chunk\x000"]
        journal.close_epoch()
        assert _snapshot(stores) == states[1]
        assert _journal_keys(stores) == []

    @staticmethod
    def _first_member(stores: StoreSet) -> WriteAheadJournal:
        journal = WriteAheadJournal(stores, _ROOT_KEY)
        content, _, dedup = _views(stores, journal)
        journal.open_epoch("epoch")
        base = journal.begin_member()
        for key in _object("obj:1", 10):
            dedup.delete(key)
        content.put("/edit", b"member 1")
        journal.commit_member(base, b"", b"", 1, "m1")
        return journal

    def test_a_fault_in_a_members_sweep_keeps_the_member(self, kind):
        """Past its record the member is committed: a fault sweeping its
        entries leaves garbage below the watermark for the close."""
        states = self._states(kind)
        plan = FaultPlan()
        stores = _stores(kind, plan)
        _seed(stores)
        # The member's own deletes, then the sweep's first entry.
        plan.fail_nth(nth=len(_object("obj:1", 10)) + 1, op="delete")
        journal = self._first_member(stores)
        assert plan.events, "the fault should have hit the sweep"
        journal.close_epoch()
        assert _snapshot(stores) == states[1]
        assert _journal_keys(stores) == []

    def test_a_fault_past_the_close_point_is_tidied_before_the_next_marker(self, kind):
        """The close stands when its tidy-up faults; the next epoch drops the
        stale record before its marker, so a crash in that epoch restores
        all of it, not just the entries above the old watermark."""
        states = self._states(kind)
        plan = FaultPlan()
        stores = _stores(kind, plan)
        _seed(stores)
        journal = self._first_member(stores)
        plan.fail_nth(nth=2, op="delete")  # the marker, then the record
        journal.close_epoch()
        assert plan.events and stores.content.exists("\x00journal:epoch")
        _, _, dedup = _views(stores, journal)
        journal.open_epoch("epoch")
        journal.begin_member()
        for key in _object("obj:2", 20):
            dedup.delete(key)
        _recover(stores)  # the enclave died before the member's record
        assert _snapshot(stores) == states[1]
        assert _journal_keys(stores) == []



# -- group entries ---------------------------------------------------------------
#
# A flushed write buffer reaches the journal as one group: one sealed entry
# lists every key's pre-image and is stored before the first value changes
# or goes.

_DEDUP_GROUP = [
    *((key, None) for key in _object("obj:1", 10)),  # four deletes
    ("obj:2\x00meta", b"overwritten meta"),
    ("obj:2\x00chunk\x001", b"\x07" * _CHUNK),
    ("obj:3\x00meta", b"created"),
    ("obj:3\x00chunk\x000", b"\x08" * _CHUNK),
    ("obj:9\x00meta", None),  # a tombstone for a key that was never stored
]
_CONTENT_GROUP = [("/edit", b"new" * 60), ("/keep", None), ("/fresh", b"f" * 10)]


def _run_group_batch(stores: StoreSet, crash_hook=None, done: list | None = None) -> None:
    """One member of two flushed groups, then a second write to a recorded key."""
    journal = WriteAheadJournal(stores, _ROOT_KEY, crash_hook=crash_hook)
    content, _, dedup = _views(stores, journal)
    journal.open_epoch("flush")
    base = journal.begin_member()
    dedup.apply(_DEDUP_GROUP)
    content.apply(_CONTENT_GROUP)
    dedup.apply([("obj:2\x00meta", None), ("obj:1\x00meta", b"back again")])
    journal.commit_member(base, b"", b"", 1, "flush")
    if done is not None:
        done.append(1)
    journal.close_epoch()


@pytest.mark.parametrize("kind", ["separate", "sharded"])
class TestGroupEntries:
    def _before(self, kind: str):
        stores = _stores(kind)
        _seed(stores)
        return _snapshot(stores)

    def _stopped(self, kind: str, site: str, nth: int = 1) -> StoreSet:
        stores = _stores(kind)
        _seed(stores)
        with pytest.raises(_StopHere):
            _run_group_batch(stores, crash_hook=_stop_at(site, nth))
        return stores

    def test_a_group_is_one_entry_and_its_moves_are_numbered_by_item(self, kind):
        """One entry per group, numbered in flush order, holding a copy of
        every recorded value: deleted and overwritten alike."""
        stores = self._stopped(kind, "journal:commit")
        entries = sorted(k for k in stores.content.keys() if k.startswith(_ENTRY))
        # Two groups; the third recorded nothing new, so it wrote nothing.
        assert entries == [f"{_ENTRY}00000000", f"{_ENTRY}00000001"]
        assert sorted(_journal_keys(stores)) == ["\x00journal:batch", *entries]
        # obj:1's three deleted chunks and obj:2's overwritten one.
        assert stores.content.size(entries[0]) > 4 * _CHUNK
        assert stores.content.size(entries[1]) < _CHUNK

    def test_the_entry_is_stored_before_anything_moves_or_changes(self, kind):
        stores = self._stopped(kind, "journal:entry")
        state = _snapshot(stores)
        entry = state["content"].pop(f"{_ENTRY}00000000")
        assert len(entry) > _CHUNK  # the overwritten chunk's copy is inside
        marker = state["content"].pop("\x00journal:batch")
        assert marker and state == self._before(kind)

    @pytest.mark.parametrize(
        "site, nth",
        [("journal:entry", 1), ("journal:entry", 2)]
        + [("journal:mutate", n) for n in (1, 2, 3, 5, 7, 9, 12, 14)],
    )
    def test_crash_inside_a_group_recovers_the_pre_batch_bytes(self, kind, site, nth):
        stores = self._stopped(kind, site, nth)
        assert _recover(stores)
        assert _snapshot(stores) == self._before(kind)
        assert _journal_keys(stores) == []

    def test_crash_at_every_store_op_is_all_or_nothing(self, kind):
        before = self._before(kind)
        done = _stores(kind)
        _seed(done)
        _run_group_batch(done)
        after = _snapshot(done)
        assert after["dedup"]["obj:1\x00meta"] == b"back again"
        assert "obj:2\x00meta" not in after["dedup"] and "/keep" not in after["content"]
        assert _journal_keys(done) == []
        total = _count_ops(kind, _run_group_batch)
        for nth in range(1, total + 1):
            done: list[int] = []
            stores, _ = _crashed_world(kind, lambda s, d=done: _run_group_batch(s, done=d), nth)
            _recover(stores)
            state = _snapshot(stores)
            allowed = [after] if done else [before, after]
            assert state in allowed, f"store op {nth}: torn state or committed member lost"
            assert _journal_keys(stores) == [], f"store op {nth}: journal residue"

    def test_a_recorded_key_keeps_its_first_pre_image(self, kind):
        """The third group rewrites two keys the first one recorded: no new
        entry, and the restore brings back the values from before the batch."""
        stores = self._stopped(kind, "journal:commit")
        before = self._before(kind)
        assert stores.dedup.get("obj:1\x00meta") == b"back again"
        assert _recover(stores)
        assert _snapshot(stores)["dedup"] == before["dedup"]

    def test_altered_saved_slot_is_rollback_detected(self, kind):
        """The group's entry, holding the deleted chunks' copies, altered."""
        stores = self._stopped(kind, "journal:commit")
        entry = f"{_ENTRY}00000000"
        blob = bytearray(stores.content.get(entry))
        blob[100] ^= 0x20
        stores.content.put(entry, bytes(blob))
        with pytest.raises(RollbackDetected):
            WriteAheadJournal(stores, _ROOT_KEY).recover_restore()

    def test_altered_value_not_yet_moved_is_rollback_detected(self, kind):
        """Two of the group's deletes are done, the third value is still in
        place: altering that value is undone from its copy, and altering
        the copy (the entry) is a typed error."""
        stores = self._stopped(kind, "journal:mutate", nth=2)
        victim = _DEDUP_GROUP[2][0]
        assert stores.dedup.exists(victim) and not stores.dedup.exists(_DEDUP_GROUP[1][0])
        stores.dedup.put(victim, stores.dedup.get("obj:2\x00chunk\x000"))
        entry = f"{_ENTRY}00000000"
        stores.content.put(entry, stores.content.get(entry)[::-1])
        with pytest.raises(RollbackDetected):
            WriteAheadJournal(stores, _ROOT_KEY).recover_restore()
        stores = self._stopped(kind, "journal:mutate", nth=2)
        stores.dedup.put(victim, b"altered")
        assert _recover(stores)
        assert _snapshot(stores) == self._before(kind)

    def test_in_process_rollback_restores_a_half_applied_group(self, kind):
        stores = _stores(kind)
        _seed(stores)
        before = _snapshot(stores)
        journal = WriteAheadJournal(stores, _ROOT_KEY, crash_hook=_stop_at("journal:mutate", 6))
        dedup = _views(stores, journal)[2]
        journal.open_epoch("doomed")
        journal.begin_member()
        with pytest.raises(_StopHere):
            dedup.apply(_DEDUP_GROUP)
        journal.rollback()
        journal.close_epoch()
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
    referenced = {object_id for object_id, _ in server.enclave.manager.dedup._index.values()}
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
    object after the commit point (``journal:reclaim``)."""

    def _crash_cells(self, site: str, dedup: bool, least: int):
        probe = build_server(enable_dedup=dedup)
        _prime_big(probe)
        plan = FaultPlan().crash_at_point(nth=10**9, site_prefix=site)
        plan.attach_platform(probe.platform)
        _remove_big(probe)
        plan.detach()
        steps = plan.seen_crashpoints(site)
        assert steps >= least, f"a three-chunk delete passed only {steps} {site} crashpoints"
        assert _residue(probe) == []
        for step in range(1, steps + 1):
            server = build_server(enable_dedup=dedup)
            _prime_big(server)
            plan = FaultPlan().crash_at_point(nth=step, site_prefix=site)
            plan.attach_platform(server.platform)
            with pytest.raises(EnclaveCrashed):
                _remove_big(server)
            plan.detach()
            yield step, server

    def test_crash_between_entry_and_move(self, dedup):
        # Between the commit point and the object's deletes; the intent
        # rides in the epoch record, which goes with the close.
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
        # Every third journal:mutate step keeps the matrix affordable; the
        # unit-level classes above die at every single store operation.
        for step, server in self._crash_cells("journal:mutate", dedup, least=4):
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
        epoch record: altered, it fails recovery instead of deleting
        whatever it would name."""
        for _, server in self._crash_cells("journal:reclaim", dedup, least=1):
            store = server.stores.content
            blob = bytearray(store.get("\x00journal:epoch"))
            blob[10] ^= 0x10
            store.put("\x00journal:epoch", bytes(blob))
            with pytest.raises(RollbackDetected):
                server.restart_enclave()
            return


def test_sharded_deployment_leaves_no_saved_key():
    """Through the shard router, a crash between the commit point and the
    reclaim leaves the object on the shards; restart completes the intent
    and no object or journal key is left on any shard."""
    options = SeGShareOptions(
        rollback="whole_fs", counter_kind="rote", rollback_buckets=8,
        enable_dedup=True,
    )
    backends = [InMemoryStore() for _ in range(3)]
    server = SeGShareServer(
        azure_wan_env(), _CA.public_key, stores=StoreSet.sharded(backends), options=options
    )
    _prime_big(server)
    object_id = server.enclave.manager.dedup._index[server.enclave.manager._pointer_target("/d/big")][0]

    def object_on_shards() -> list[str]:
        return [key for shard in backends for key in shard.keys() if object_id in key]

    plan = FaultPlan().crash_at_point(nth=1, site_prefix="journal:reclaim")
    plan.attach_platform(server.platform)
    with pytest.raises(EnclaveCrashed):
        _remove_big(server)
    plan.detach()
    assert len(object_on_shards()) == 4, "the crash should have caught the object whole"
    server.restart_enclave()
    server.enclave.guard.verify_restored_state()
    assert object_on_shards() == []
    assert not server.enclave.manager.exists("/d/big")
    assert not any("\x00journal:" in key for shard in backends for key in shard.keys())
    assert server.enclave.handler.put_file("alice", "/d/big", _BIG).status is Status.OK
    assert server.enclave.manager.read_content("/d/big") == _BIG


def test_a_failed_rollback_refuses_later_mutations_until_restart():
    """An abort whose re-anchor fails poisons the journal with its batch
    still persisted.  A later mutation must answer UNAVAILABLE, not join
    the dead batch and answer OK for writes the restart would undo."""
    plan = FaultPlan()
    server = SeGShareServer(
        azure_wan_env(), _CA.public_key, stores=faulty_stores(StoreSet.in_memory(), plan),
        options=SeGShareOptions(rollback="whole_fs", counter_kind="rote", rollback_buckets=8),
    )
    prime(server)
    engine, handler = server.enclave.engine, server.enclave.handler

    def repair_fails(record) -> None:
        raise FaultError("re-anchor failed")

    engine.repair_guards = repair_fails
    plan.fail_nth(nth=2, op="put")  # the marker, then the request's first entry
    assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",))).status is Status.RETRY
    del engine.repair_guards
    assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/g/",))).status is Status.UNAVAILABLE
    server.restart_enclave()
    server.enclave.guard.verify_restored_state()
    manager = server.enclave.manager
    assert not manager.exists("/e/") and not manager.exists("/g/")
    response = server.enclave.handler.handle("alice", Request(op=Op.PUT_DIR, args=("/g/",)))
    assert response.status is Status.OK


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
        assert server.enclave.guard.degraded_reads > 0
        # Writes refuse with a typed UNAVAILABLE, not a crash or corruption.
        response = handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",)))
        assert response.status is Status.UNAVAILABLE
        assert not server.enclave.manager.exists("/e/")

        counter.set_replica_up(0, True)
        counter.set_replica_up(1, True)
        response = handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",)))
        assert response.status is Status.OK


def test_seeded_crash_smoke():
    """CI knob: one randomized crash/recover cycle per seed.

    The seed comes from ``SEGSHARE_FAULT_SEED`` so the CI fault-matrix job
    can sweep several seeds cheaply; the default exercises seed 0.
    """
    seed = int(os.environ.get("SEGSHARE_FAULT_SEED", "0"))
    steps = count_journal_steps(run_move)
    step = random.Random(seed).randint(1, steps)
    crash_restart_check(run_move, step, check_move)
