"""Group commit: concurrently-prepared transactions share one commit epoch.

The coordinator coalesces transactions whose begin time falls inside the
open epoch's window into one batched guard flush, one anchor write, one
counter increment and one redo-record delete — amortized over K members.
Each member still commits through its own redo record: a member abort
drops exactly its writes while earlier members' commits stand, and a
stamp committed inside a still-open epoch is durable across a crash.
"""

from __future__ import annotations

import pytest

from repro.bench.concurrency import parallel_env
from repro.core.coherence import CoherenceManager
from repro.core.enclave_app import SeGShareOptions
from repro.core.journal import TAG_CONTENT, TAG_DEDUP, WriteAheadJournal
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, FaultError
from repro.faults import FaultPlan, faulty_stores
from repro.netsim import azure_wan_env
from repro.netsim.coherence import CoherenceBoard
from repro.pki import CertificateAuthority
from repro.storage.stores import StoreSet
from repro.store.engine import DeferredStore, TransactionStats
from tests.support.dedup import stored_records
from tests.support.explorer import RecordingPlan, journal_site, under_plan
from tests.support.platform import loaded_enclave

#: One CA for the whole module — RSA keygen dominates setup otherwise.
_CA = CertificateAuthority(key_bits=1024)


def build_server(parallel: bool = True, stores=None, **overrides) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        switchless_workers=4,
        **overrides,
    )
    env = parallel_env() if parallel else azure_wan_env()
    return SeGShareServer(env, _CA.public_key, stores=stores, options=options)


def setup_dir(server: SeGShareServer) -> None:
    handler = server.enclave.handler
    response = handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",)))
    assert response.status is Status.OK
    # Close the epoch the setup writes opened so each test measures only
    # its own dispatches.
    server.enclave.engine.quiesce()


def put_thunk(server: SeGShareServer, path: str, content: bytes):
    handler = server.enclave.handler

    def thunk():
        assert handler.put_file("alice", path, content).status is Status.OK

    return thunk


class TestCoordinatorWiring:
    def test_serial_clock_closes_epochs_at_one_member(self):
        server = build_server(parallel=False)
        engine = server.enclave.engine
        assert engine.group_commit.solo
        before = server.stats()["group_commit"]
        setup_dir(server)
        assert server.enclave.handler.put_file("alice", "/d/x", b"x").status is Status.OK
        # Each member closed its own epoch inside its commit point: nothing
        # is left open for a quiesce, and nothing was amortized.
        assert engine.journal.epoch is None
        assert not any(key.startswith("\x00journal:redo") for key in server.stores.content.keys())
        after = server.stats()["group_commit"]
        assert after["epochs"] == after["members_total"] == before["epochs"] + 2
        assert after["max_members"] == 1 and set(after["histogram"]) == {"1"}
        assert after["closes"] == {"solo": after["epochs"]}
        assert after["record_deletes_saved"] == 0

    def test_parallel_clock_installs_coordinator(self):
        server = build_server(parallel=True)
        engine = server.enclave.engine
        assert not engine.group_commit.solo
        stats = server.stats()
        assert set(stats["group_commit"]) >= {
            "epochs",
            "members_total",
            "max_members",
            "histogram",
            "closes",
            "record_deletes_saved",
            "anchor_writes_saved",
        }


class TestEpochFormation:
    def test_overlapping_writes_share_one_epoch(self):
        server = build_server()
        engine = server.enclave.engine
        setup_dir(server)
        stats = engine.group_commit.stats
        epochs0, members0 = stats.epochs, stats.members_total
        deletes0, anchor0 = stats.record_deletes_saved, stats.anchor_writes_saved

        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/a", b"one"), arrival=t0)
        server.switchless.dispatch(put_thunk(server, "/d/b", b"two"), arrival=t0)
        engine.quiesce()

        assert stats.epochs == epochs0 + 1
        assert stats.members_total == members0 + 2
        assert stats.histogram.get("2", 0) >= 1
        assert stats.max_members >= 2
        # One record delete amortized over two members, and one write of
        # the one file-system anchor + its counter increment.
        assert stats.record_deletes_saved == deletes0 + 1
        assert stats.anchor_writes_saved == anchor0 + 1

        manager = server.enclave.manager
        assert manager.read_content("/d/a") == b"one"
        assert manager.read_content("/d/b") == b"two"
        server.enclave.guard.verify_restored_state()

    def test_closed_loop_client_joins_the_epoch_while_the_counter_counts(self):
        """A lone closed-loop client never overlaps its own requests, but an
        epoch admits members until the counter is free: the second write
        closes the first's epoch and opens one on its pending anchor record,
        and the third, which arrives while that close's increment is still
        in flight, joins it."""
        server = build_server()
        engine = server.enclave.engine
        setup_dir(server)
        stats = engine.group_commit.stats
        epochs0, saved0 = stats.epochs, stats.record_deletes_saved
        closes0, histogram0 = dict(stats.closes), dict(stats.histogram)

        arrival = server.env.clock.now()
        for i in range(3):
            server.switchless.dispatch(
                put_thunk(server, f"/d/f{i}", b"x" * 16), arrival=arrival
            )
            arrival = server.switchless.last_track.end
        engine.quiesce()

        assert stats.epochs == epochs0 + 2
        assert stats.record_deletes_saved == saved0 + 1
        assert stats.closes["window"] == closes0.get("window", 0) + 1
        assert stats.closes["quiesce"] == closes0.get("quiesce", 0) + 1
        assert stats.histogram["1"] == histogram0.get("1", 0) + 1
        assert stats.histogram["2"] == histogram0.get("2", 0) + 1
        assert stats.histogram.get("3", 0) == 0

    def test_quiesce_close_reason_is_counted(self):
        server = build_server()
        engine = server.enclave.engine
        setup_dir(server)
        stats = engine.group_commit.stats
        quiesced0 = stats.closes.get("quiesce", 0)
        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/q", b"q"), arrival=t0)
        engine.quiesce()
        assert stats.closes.get("quiesce", 0) == quiesced0 + 1
        # Quiescing with no open epoch is a no-op, not another close.
        engine.quiesce()
        assert stats.closes.get("quiesce", 0) == quiesced0 + 1


class TestMemberAtomicity:
    def test_member_abort_rolls_back_only_that_member(self):
        plan = FaultPlan()
        stores = faulty_stores(StoreSet.in_memory(), plan)
        server = build_server(stores=stores)
        engine = server.enclave.engine
        handler = server.enclave.handler
        setup_dir(server)

        # Measure a put's store-op footprint with a probe write.
        ops0 = plan.store_ops
        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/probe", b"probe"), arrival=t0)
        per_put = plan.store_ops - ops0
        engine.quiesce()

        aborts0 = engine.stats.aborts
        t1 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/ok", b"committed"), arrival=t1)
        # Fault the second member mid-batch: it must abort alone.
        plan.fail_nth(nth=max(1, per_put // 2))

        def failing():
            response = handler.put_file("alice", "/d/bad", b"doomed")
            assert response.status is Status.RETRY

        server.switchless.dispatch(failing, arrival=t1)
        engine.quiesce()

        assert engine.stats.aborts == aborts0 + 1
        manager = server.enclave.manager
        assert manager.read_content("/d/ok") == b"committed"
        assert not manager.exists("/d/bad")
        server.enclave.guard.verify_restored_state()

        # The aborted request retries cleanly on the same server.
        t2 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/bad", b"doomed"), arrival=t2)
        engine.quiesce()
        assert manager.read_content("/d/bad") == b"doomed"

    def test_member_abort_after_an_index_change_keeps_the_index_sealed(self):
        """Member 1 commits a dedup upload; member 2 of the same epoch
        changes the records, reads one back and aborts.  The records are
        written per member, so member 1's refcounts are durable at its
        commit record; member 2's changes sat in its write buffers and go
        with them, and the record it read back never reached the cache."""
        server = build_server(enable_dedup=True, metadata_cache_bytes=64 * 1024)
        engine = server.enclave.engine
        dedup = server.enclave.manager.dedup
        setup_dir(server)
        server.enclave.handler.put_file("alice", "/d/first", b"shared")
        engine.quiesce()
        h_shared = dedup.h_name(b"shared")
        stats = engine.group_commit.stats
        epochs0, members0 = stats.epochs, stats.members_total
        aborts0 = engine.stats.aborts

        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/second", b"shared"), arrival=t0)

        def doomed():
            with pytest.raises(RuntimeError):
                with engine.transaction("doomed"):
                    dedup.release(h_shared)
                    dedup.put(b"never adopted")
                    assert dedup.refcount(h_shared) == 1  # read from the span's buffers
                    raise RuntimeError("abort after changing the index")

        server.switchless.dispatch(doomed, arrival=t0)
        assert engine.journal.epoch is not None and engine.journal.epoch.members == 1
        assert engine.stats.aborts == aborts0 + 1
        assert dedup.refcount(h_shared) == 2
        records = stored_records(dedup)
        assert records[h_shared][1] == 2 and dedup.h_name(b"never adopted") not in records

        engine.quiesce()
        assert (stats.epochs, stats.members_total) == (epochs0 + 1, members0 + 1)
        server.restart_enclave()
        assert stored_records(server.enclave.manager.dedup) == records
        assert server.enclave.manager.dedup.refcount(h_shared) == 2
        assert server.enclave.manager.read_content("/d/second") == b"shared"

    def test_a_board_bump_inside_a_member_keeps_its_index_change(self):
        """A member changes a record, then the host bumps the coherence
        board and the member's next lookup syncs.  The forced full discard
        drops cached plaintext only: the change sits in the member's write
        buffers, so the member reads it back and commits it, and the
        member before it stands."""
        server = build_server(enable_dedup=True, metadata_cache_bytes=64 * 1024)
        engine = server.enclave.engine
        dedup = server.enclave.manager.dedup
        board = CoherenceBoard()
        engine.attach_coherence(CoherenceManager(board, bytes(32), engine))
        setup_dir(server)
        h_shared = dedup.h_name(b"shared")
        aborts0 = engine.stats.aborts

        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/first", b"shared"), arrival=t0)

        def bumped():
            with engine.transaction("bumped"):
                dedup.put(b"shared")
                board._epoch += 1  # no entry behind it: a forced full discard
                assert dedup.refcount(h_shared) == 2

        server.switchless.dispatch(bumped, arrival=t0)
        assert engine.journal.epoch is not None and engine.journal.epoch.members == 2
        assert engine.stats.aborts == aborts0
        assert engine.coherence.stats.full_discards == 1
        assert dedup.refcount(h_shared) == 2
        records = stored_records(dedup)
        assert records[h_shared][1] == 2

        engine.quiesce()
        server.restart_enclave()
        assert stored_records(server.enclave.manager.dedup) == records
        assert server.enclave.manager.read_content("/d/first") == b"shared"


class TestEpochDurability:
    def test_member_commit_survives_crash_with_epoch_open(self):
        """A member committed inside a still-open epoch is durable: the
        member's redo record (not the epoch's close) is its commit point."""
        server = build_server()
        engine = server.enclave.engine
        setup_dir(server)
        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/x", b"durable"), arrival=t0)
        assert engine.journal.epoch is not None  # crash before the epoch closes

        server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        assert server.enclave.manager.read_content("/d/x") == b"durable"

    def test_stamp_committed_in_group_visible_after_takeover(self):
        """The failover stamp a member flushes at its commit point must be
        readable after a crash with the epoch still open — the cluster's
        exactly-once decision depends on it."""
        server = build_server()
        engine = server.enclave.engine
        setup_dir(server)
        server.handle.call("cluster_begin_request", "req:epoch-0001")
        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/y", b"stamped"), arrival=t0)
        assert engine.journal.epoch is not None

        server.restart_enclave()
        assert server.handle.call("cluster_last_committed_stamp") == "req:epoch-0001"
        assert server.enclave.manager.read_content("/d/y") == b"stamped"

    def test_uncommitted_stamp_rolls_back_with_its_member(self):
        plan = FaultPlan()
        stores = faulty_stores(StoreSet.in_memory(), plan)
        server = build_server(stores=stores)
        engine = server.enclave.engine
        handler = server.enclave.handler
        setup_dir(server)

        ops0 = plan.store_ops
        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/probe", b"probe"), arrival=t0)
        per_put = plan.store_ops - ops0
        engine.quiesce()
        committed_before = server.handle.call("cluster_last_committed_stamp")

        server.handle.call("cluster_begin_request", "req:doomed-0001")
        plan.fail_nth(nth=max(1, per_put // 2))

        def failing():
            response = handler.put_file("alice", "/d/never", b"doomed")
            assert response.status is Status.RETRY

        t1 = server.env.clock.now()
        server.switchless.dispatch(failing, arrival=t1)
        engine.quiesce()
        # The aborted member's stamp never reached the committed slot.
        assert server.handle.call("cluster_last_committed_stamp") == committed_before


class TestCloseFaults:
    """A transient store fault anywhere in an epoch close is repaired in
    process, the way restart recovery repairs a crash at that point: the
    request that met it answers RETRY, its retry OK, and every committed
    file reads back, before and after a restart."""

    MKDIR = Request(op=Op.PUT_DIR, args=("/d/e/",))

    @staticmethod
    def _world() -> tuple[SeGShareServer, FaultPlan]:
        """A committed member of a still-open epoch over faulty stores."""
        plan = FaultPlan()
        server = build_server(stores=faulty_stores(StoreSet.in_memory(), plan))
        setup_dir(server)
        t0 = server.env.clock.now()
        server.switchless.dispatch(put_thunk(server, "/d/a", b"committed"), arrival=t0)
        assert server.enclave.engine.journal.epoch is not None
        return server, plan

    @staticmethod
    def _later(server: SeGShareServer) -> float:
        """An arrival past the open epoch's window: its opener closes it."""
        return server.env.clock.now() + 0.001

    def _check(self, server: SeGShareServer) -> None:
        server.enclave.engine.quiesce()
        for _ in range(2):
            manager = server.enclave.manager
            assert manager.read_content("/d/a") == b"committed"
            assert manager.exists("/d/e/")
            for guard in (server.enclave.guard, server.enclave.group_guard):
                assert guard.recompute_main() == guard.root_hash()
            assert not any(key.startswith("\x00journal:redo") for key in server.stores.content.keys())
            server.restart_enclave()

    def test_a_put_fault_in_the_openers_close(self):
        faulted_closes = 0
        for nth in range(1, 100):
            server, plan = self._world()
            handler = server.enclave.handler
            closes = server.enclave.engine.group_commit.stats.closes
            windows = closes.get("window", 0)
            plan.fail_nth(nth=nth, op="put")
            responses = []
            server.switchless.dispatch(
                lambda: responses.append(handler.handle("alice", self.MKDIR)),
                arrival=self._later(server),
            )
            if closes.get("window", 0) > windows:
                break  # the fault landed past the close, in the opener's own member
            faulted_closes += 1
            assert [r.status for r in responses] == [Status.RETRY], f"put {nth}"
            assert handler.handle("alice", self.MKDIR).status is Status.OK, f"put {nth}"
            self._check(server)
        assert faulted_closes >= 2

    def test_a_fault_at_any_store_op_of_a_quiesce_close(self):
        repaired = 0
        for nth in range(1, 200):
            server, plan = self._world()
            engine = server.enclave.engine
            plan.fail_nth(nth=nth)
            injected = len(plan.events)
            try:
                engine.quiesce()
            except FaultError:
                repaired += 1
            else:
                if len(plan.events) == injected:
                    break  # the close ran out of store ops before the fault
            response = server.enclave.handler.handle("alice", self.MKDIR)
            assert response.status is Status.OK, f"store op {nth}"
            self._check(server)
        assert repaired >= 2


class TestMovedPreImagesInAnEpoch:
    """Two members of one epoch each remove a three-chunk file.

    A member's pointer and directory changes reach the store only through
    its redo record; its object is named in that record and deleted after
    the commit point.  Crash at any journal step of either member: recovery
    re-applies the last committed member's record and completes the
    intents it names, so no object and no journal key is stranded on any
    store.
    """

    #: Two three-chunk files with different content (dedup keeps both).
    BIG = {
        "/d/big1": bytes(i % 249 for i in range(2 * 4096 + 77)),
        "/d/big2": bytes((i + 1) % 249 for i in range(2 * 4096 + 77)),
    }

    def _primed(self, stores=None) -> SeGShareServer:
        server = build_server(stores=stores, enable_dedup=True)
        setup_dir(server)
        handler = server.enclave.handler
        for path, content in self.BIG.items():
            assert handler.put_file("alice", path, content).status is Status.OK
        server.enclave.engine.quiesce()
        return server

    @staticmethod
    def _remove_pair(server: SeGShareServer) -> None:
        handler = server.enclave.handler
        manager = server.enclave.manager
        t0 = server.env.clock.now()
        for path in ("/d/big1", "/d/big2"):
            if not manager.exists(path):
                continue  # an earlier attempt's member already committed

            def thunk(p=path):
                response = handler.handle("alice", Request(op=Op.REMOVE, args=(p,)))
                assert response.status is Status.OK

            server.switchless.dispatch(thunk, arrival=t0)
        server.enclave.engine.quiesce()

    @staticmethod
    def _saved(server: SeGShareServer) -> list[str]:
        """Journal keys on any store, and objects no record names."""
        stores = server.stores
        journal = [
            key
            for store in (stores.content, stores.group, stores.dedup)
            for key in store.keys()
            if key.startswith("\x00journal:")
        ]
        objects = {key.partition("\x00")[0] for key in stores.dedup.keys() if key.startswith("obj:")}
        named = {object_id for object_id, _ in stored_records(server.enclave.manager.dedup).values()}
        return journal + sorted(objects - named)

    def test_crash_between_entry_and_move_in_either_member(self):
        probe, plan = under_plan(self._primed)
        before = plan.effects
        self._remove_pair(probe)
        # Not vacuous: both removals really did share one epoch.
        assert probe.enclave.engine.group_commit.stats.histogram.get("2", 0) >= 1
        steps = plan.effects - before
        assert steps >= 8, "two removals should make at least eight effects"
        assert self._saved(probe) == []

        survivors = set()
        for step in range(steps):
            server, plan = under_plan(self._primed)
            plan.crash_after_effects(step)
            with pytest.raises(EnclaveCrashed):
                self._remove_pair(server)
            plan.detach()

            server.restart_enclave()
            server.enclave.guard.verify_restored_state()
            manager = server.enclave.manager
            present = tuple(manager.exists(path) for path in self.BIG)
            survivors.add(present)
            for path, content in self.BIG.items():
                if manager.exists(path):
                    assert manager.read_content(path) == content, f"step {step}: {path} torn"
                else:
                    assert path not in manager.read_dir("/d/").children
            # Members commit in order: the second removal cannot have
            # survived a crash that undid the first.
            assert present != (True, False), f"step {step}: later member outlived earlier"
            assert self._saved(server) == [], f"step {step}: key left behind"
            self._remove_pair(server)
            assert not any(manager.exists(path) for path in self.BIG)
            assert self._saved(server) == []
        # Crashes before member one's record kept both files, crashes in
        # member two kept member one's removal, and crashes past member
        # two's record kept both removals.
        assert survivors == {(True, True), (False, True), (False, False)}

    def test_member_abort_moves_back_only_that_members_chunks(self):
        plan = FaultPlan()
        server = self._primed(stores=faulty_stores(StoreSet.in_memory(), plan))
        handler = server.enclave.handler
        t0 = server.env.clock.now()

        def remove_first():
            response = handler.handle("alice", Request(op=Op.REMOVE, args=("/d/big1",)))
            assert response.status is Status.OK

        ops0 = plan.store_ops
        server.switchless.dispatch(remove_first, arrival=t0)
        per_remove = plan.store_ops - ops0
        plan.fail_nth(nth=per_remove // 2)

        def failing():
            response = handler.handle("alice", Request(op=Op.REMOVE, args=("/d/big2",)))
            assert response.status is Status.RETRY

        server.switchless.dispatch(failing, arrival=t0)
        server.enclave.engine.quiesce()
        manager = server.enclave.manager
        assert not manager.exists("/d/big1")
        assert manager.read_content("/d/big2") == self.BIG["/d/big2"]
        assert self._saved(server) == []
        server.enclave.guard.verify_restored_state()


class TestGroupEntriesInAnEpoch:
    """A bare redo journal under armed write buffers: each member's first
    group of writes spills into a record part, its second stays buffered,
    and both reach the store only through the member's record.  Recovery
    re-applies the last committed member's record, parts first, and never
    applies a part no record names."""

    KEY = bytes(range(32))

    def _members(self, stores: StoreSet, plan: FaultPlan) -> None:
        """The two members' epoch over ``stores``, whose effects ``plan`` sees."""
        stores = faulty_stores(stores, plan)
        journal = WriteAheadJournal(stores, self.KEY)
        enclave, stats = loaded_enclave(), TransactionStats()
        content = DeferredStore(stores.content, enclave, stats, journal, TAG_CONTENT)
        dedup = DeferredStore(stores.dedup, enclave, stats, journal, TAG_DEDUP)
        journal.open_epoch("epoch")
        for member, name in enumerate("ab", start=1):
            base = journal.begin_member()
            dedup.arm()
            content.arm()
            for i in range(4):
                dedup.delete(f"{name}{i}")
            content.put("/doc", b"member %d" % member)
            content.put(f"/new{member}", b"n")
            dedup._spill()
            content._spill()
            # A second group of the same member over keys the first wrote.
            content.put("/doc", b"member %d, again" % member)
            content.delete(f"/new{member}")
            writes = dedup.drain() + content.drain()
            record = journal.commit_member(base, b"", b"", f"m{member}", writes=writes)
            journal.apply(record.writes, record.parts)
        journal.close_epoch()
        journal.land()

    def _stores(self) -> StoreSet:
        stores = StoreSet.in_memory()
        for name in "ab":
            for i in range(4):
                stores.dedup.put(f"{name}{i}", (name + str(i)).encode() * 200)
        stores.content.put("/doc", b"v0")
        return stores

    @staticmethod
    def _state(stores: StoreSet) -> dict:
        return {
            name: {key: store.get(key) for key in store.keys()}
            for name, store in (("content", stores.content), ("dedup", stores.dedup))
        }

    def _run(self, site: str, nth: int) -> StoreSet:
        """Crash the epoch where the named ``site`` fired ``nth``, recover;
        the stores."""
        plan = RecordingPlan()
        self._members(self._stores(), plan)
        stores = self._stores()
        with pytest.raises(EnclaveCrashed):
            self._members(stores, FaultPlan().crash_after_effects(journal_site(plan.labels, site, nth)))
        recovery = WriteAheadJournal(stores, self.KEY)
        recovery.recover()
        recovery.recover_finish()
        assert not any(key.startswith("\x00journal:") for key in stores.content.keys())
        return stores

    def _after_members(self, count: int) -> dict:
        dedup = {f"{n}{i}": (n + str(i)).encode() * 200 for n in "ab"[count:] for i in range(4)}
        doc = b"member %d, again" % count if count else b"v0"
        return {"content": {"/doc": doc}, "dedup": dedup}

    def test_a_member_dying_at_its_commit_leaves_its_groups_unapplied(self):
        # Member two dies at its commit: its parts are stored, but no record
        # names them, and /doc keeps what member one committed.
        assert self._state(self._run("journal:commit", 2)) == self._after_members(1)

    def test_a_committed_members_record_is_re_applied(self):
        # Member one dies after its record, before applying it.
        assert self._state(self._run("journal:committed", 1)) == self._after_members(1)

    @pytest.mark.parametrize("nth", [1, 3, 4, 5, 8])
    def test_crash_between_the_moves_of_a_group(self, nth):
        # Each member applies eight writes, its four deletes first: step
        # 2n-1 lies in member one for n <= 4, in member two after.  Either
        # way the dying member is rolled forward.
        expected = self._after_members(1 if nth <= 4 else 2)
        assert self._state(self._run("journal:apply", 2 * nth - 1)) == expected

    def test_a_key_in_two_groups_lands_with_its_last_value(self):
        # Stop inside member two's spilled content group, after /doc's
        # first value landed: the re-apply ends on the buffered group's.
        stores = self._run("journal:apply", 8 + 4 + 1)
        assert stores.content.get("/doc") == b"member 2, again"
        assert not stores.content.exists("/new2")
