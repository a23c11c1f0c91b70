"""Released objects are reclaimed after the commit point, not under the journal.

An overwrite or REMOVE that drops an object's last reference names it in
a sealed reclaim intent that is durable before the commit point; the
object's keys go after the commit, below the journal, once no reader
holds it open.  A download that started before the mutation therefore
finishes with the bytes it started with, and the mutation never fails
because someone is reading.  Restart (own store) and cluster takeover
(shared store) complete every intent a crash interrupted.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bench.concurrency import parallel_env
from repro.cluster import build_cluster, path_affinity
from repro.core.backup import authorize_restore, restore_backup, take_backup
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, FaultError, TlsError
from repro.faults import FaultPlan, faulty_stores
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.stores import StoreSet
from repro.tls.channel import StreamingResponse, _ServerSession
from tests.support.dedup import stored_records
from tests.support.explorer import RecordingPlan, arm, under_plan

#: One CA for the whole module — its RSA key generation dominates setup.
_CA = CertificateAuthority(key_bits=1024)

OLD = bytes(i % 251 for i in range(3 * 4096 + 5))  # four chunks
NEW = b"the replacement"


def build_server(stores=None, parallel=False, **overrides) -> SeGShareServer:
    options = SeGShareOptions(
        **{"rollback": "whole_fs", "counter_kind": "rote", "rollback_buckets": 8, **overrides}
    )
    env = parallel_env() if parallel else azure_wan_env()
    return SeGShareServer(env, _CA.public_key, stores=stores, options=options)


def primed(stores=None, parallel=False, **overrides) -> SeGShareServer:
    server = build_server(stores=stores, parallel=parallel, **overrides)
    handler = server.enclave.handler
    assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/d/",))).status is Status.OK
    assert handler.put_file("alice", "/d/keep", b"other file").status is Status.OK
    assert handler.put_file("alice", "/d/f", OLD).status is Status.OK
    server.enclave.engine.quiesce()
    return server


def object_of(server: SeGShareServer, path: str) -> str:
    manager = server.enclave.manager
    return stored_records(manager.dedup)[manager._pointer_target(path)][0]


def reclaim_deletes(labels: list[str]) -> list[int]:
    """Where a reclaim deletes an object key, by effect index."""
    return [k for k, label in enumerate(labels) if label.startswith("dedup:delete 'obj:")]


def stored_objects(stores: StoreSet) -> set[str]:
    return {key.partition("\x00")[0] for key in stores.dedup.keys() if key.startswith("obj:")}


def journal_keys(stores: StoreSet) -> list[str]:
    return [
        key
        for store in (stores.content, stores.group, stores.dedup)
        for key in store.keys()
        if key.startswith("\x00journal:")
    ]


def engine_stats(server: SeGShareServer) -> dict:
    return server.stats()["engine"]


def check_objects(server: SeGShareServer) -> None:
    """Every stored object is referenced, and every referenced one reads whole."""
    manager = server.enclave.manager
    referenced = {object_id for object_id, _ in stored_records(manager.dedup).values()}
    assert stored_objects(server.stores) == referenced
    assert manager.read_content("/d/keep") == b"other file"
    assert manager.read_content("/d/f") in (OLD, NEW)


@pytest.mark.parametrize("rollback", ["off", "whole_fs"])
@pytest.mark.parametrize("dedup", [False, True], ids=["plain", "dedup"])
class TestMutationsDuringADownload:
    """A stream of ``/d/f`` is open and one chunk in when ``/d/f`` changes."""

    @staticmethod
    def _mutate(server: SeGShareServer, mutation: str) -> Status:
        handler = server.enclave.handler
        if mutation == "overwrite":
            return handler.put_file("alice", "/d/f", NEW).status
        if mutation == "remove":
            return handler.handle("alice", Request(op=Op.REMOVE, args=("/d/f",))).status
        # MOVE never lands on an existing file; the streamed file moves
        # away and its new name is then overwritten.
        moved = handler.handle("alice", Request(op=Op.MOVE, args=("/d/f", "/d/g")))
        assert moved.status is Status.OK
        return handler.put_file("alice", "/d/g", NEW).status

    @pytest.mark.parametrize("mutation", ["overwrite", "remove", "move-over"])
    def test_mutation_answers_ok_and_the_stream_keeps_its_bytes(self, dedup, rollback, mutation):
        server = primed(enable_dedup=dedup, rollback=rollback)
        old = object_of(server, "/d/f")
        stream = server.enclave.handler.handle("alice", Request(op=Op.GET, args=("/d/f",)))
        assert isinstance(stream, StreamingResponse) and stream.body_len == len(OLD)
        chunks = iter(stream.chunks)
        first = next(chunks)

        assert self._mutate(server, mutation) is Status.OK
        # Committed, but the reader still holds the object.
        assert old in stored_objects(server.stores)
        assert engine_stats(server)["reclaimed"] == 0

        assert first + b"".join(chunks) == OLD
        # The drained stream closed its reader, and the reclaim ran.
        assert old not in stored_objects(server.stores)
        stats = engine_stats(server)
        assert (stats["reclaimed"], stats["reclaims_waited"]) == (1, 1)
        assert journal_keys(server.stores) == []
        manager = server.enclave.manager
        if mutation == "remove":
            assert not manager.exists("/d/f")
        else:
            path = "/d/f" if mutation == "overwrite" else "/d/g"
            assert manager.read_content(path) == NEW


def test_a_restored_backup_keeps_an_object_a_waiting_reclaim_named():
    """The provider restores a backup taken before the overwrite while the
    old object still waits for its reader: the restored file points at
    that object again, so the reader's close must not delete it."""
    server = primed()
    snapshot = take_backup(server)
    stream = server.enclave.handler.handle("alice", Request(op=Op.GET, args=("/d/f",)))
    chunks = iter(stream.chunks)
    first = next(chunks)
    assert server.enclave.handler.put_file("alice", "/d/f", NEW).status is Status.OK
    restore_backup(server, snapshot)
    authorize_restore(_CA, server)
    assert first + b"".join(chunks) == OLD
    assert server.enclave.manager.read_content("/d/f") == OLD
    assert engine_stats(server)["reclaimed"] == 0


class TestDroppedStreams:
    """A stream that is never iterated must still let its reader go."""

    @staticmethod
    def _get(server: SeGShareServer) -> StreamingResponse:
        result = server.enclave.handler.handle("alice", Request(op=Op.GET, args=("/d/f",)))
        assert isinstance(result, StreamingResponse)
        return result

    def _overwrite_reclaims_at_once(self, server: SeGShareServer, old: str) -> None:
        assert server.enclave.handler.put_file("alice", "/d/f", NEW).status is Status.OK
        assert old not in stored_objects(server.stores)
        assert engine_stats(server)["reclaims_waited"] == 0

    def test_audit_failure_after_a_get(self):
        server = primed(audit=True)
        old = object_of(server, "/d/f")

        def refuse(*args, **kwargs):
            raise FaultError("audit store unavailable")

        server.enclave.audit_log.append = refuse
        payload = Request(op=Op.GET, args=("/d/f",)).serialize()
        with pytest.raises(FaultError):
            server.enclave.handle_message("alice", payload)
        del server.enclave.audit_log.append
        self._overwrite_reclaims_at_once(server, old)

    def test_header_protect_failure(self):
        server = primed()
        old = object_of(server, "/d/f")
        session = _ServerSession(None, server.env.clock, None)

        def protect(data: bytes) -> bytes:
            raise TlsError("record layer failed")

        session._session = SimpleNamespace(protect=protect)
        with pytest.raises(TlsError):
            session._respond(self._get(server))
        self._overwrite_reclaims_at_once(server, old)


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "epoch"])
class TestReclaimCrashes:
    """Overwrite a four-chunk file and kill the enclave part-way."""

    @staticmethod
    def _overwrite(server: SeGShareServer) -> None:
        assert server.enclave.handler.put_file("alice", "/d/f", NEW).status is Status.OK
        server.enclave.engine.quiesce()

    def _restarted(self, server: SeGShareServer) -> SeGShareServer:
        server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        check_objects(server)
        assert journal_keys(server.stores) == []
        return server

    @staticmethod
    def _armed(parallel: bool) -> tuple[SeGShareServer, RecordingPlan]:
        return under_plan(lambda stores: primed(stores, parallel, enable_dedup=True))

    def test_crash_at_every_store_op(self, parallel):
        server, plan = self._armed(parallel)
        before = plan.effects
        self._overwrite(server)
        total = plan.effects - before
        recovered = set()
        for step in range(total):
            server, plan = self._armed(parallel)
            plan.crash_after_effects(step)
            with pytest.raises(EnclaveCrashed):
                self._overwrite(server)
            plan.detach()
            recovered.add(engine_stats(self._restarted(server))["intents_recovered"])
            self._overwrite(server)
            check_objects(server)
        # Some crashes fell between the commit point and the end of the
        # reclaim: there, restart completed the intent.
        assert recovered == {0, 1}

    def test_crash_at_each_reclaim_crashpoint(self, parallel):
        """Before each of the reclaim's two deletes, on both clocks: the
        intent rides in the member's redo record, which a serial clock's
        member keeps until it closes its epoch after the reclaim."""
        server, plan = self._armed(parallel)
        start = len(plan.labels)
        self._overwrite(server)
        steps = reclaim_deletes(plan.labels[start:])
        assert len(steps) == 2
        for step in steps:
            server, plan = self._armed(parallel)
            old = object_of(server, "/d/f")
            plan.crash_after_effects(step)
            with pytest.raises(EnclaveCrashed):
                self._overwrite(server)
            plan.detach()
            server = self._restarted(server)
            assert engine_stats(server)["intents_recovered"] == 1
            assert old not in stored_objects(server.stores)
            assert server.enclave.manager.read_content("/d/f") == NEW


class TestReclaimOps:
    """The store ops a reclaim makes, from a :class:`FaultPlan`'s view of
    every store op: one delete per key and no ``exists`` probe, whether or
    not the object is past one chunk (only then has it a data value)."""

    @staticmethod
    def _logged(content: bytes) -> tuple[SeGShareServer, str, list]:
        plan = FaultPlan()
        server = primed(faulty_stores(StoreSet.in_memory(), plan), enable_dedup=True)
        handler = server.enclave.handler
        assert handler.put_file("alice", "/d/f", content).status is Status.OK
        server.enclave.engine.quiesce()
        old, log, decide = object_of(server, "/d/f"), [], plan.on_store_op

        def logging(store: str, op: str, key: str):
            log.append((store, op, key))
            return decide(store, op, key)

        plan.on_store_op = logging
        assert handler.put_file("alice", "/d/f", NEW).status is Status.OK
        server.enclave.engine.quiesce()
        return server, old, [entry for entry in log if entry[2].startswith(old)]

    @pytest.mark.parametrize("content", [b"one chunk", OLD], ids=["one-chunk", "four-chunk"])
    def test_an_overwriting_put_deletes_each_key_once_unprobed(self, content):
        server, old, ops = self._logged(content)
        assert ops == [("dedup", "delete", old + "\x00meta"), ("dedup", "delete", old + "\x00data")]
        assert old not in stored_objects(server.stores)

    @pytest.mark.parametrize("content", [b"one chunk", OLD], ids=["one-chunk", "four-chunk"])
    def test_a_re_run_is_idempotent(self, content):
        server, old, _ = self._logged(content)
        server.enclave.engine.journal.reclaim(old)  # both keys already gone
        assert old not in stored_objects(server.stores)

    def test_a_re_run_after_a_cut_between_the_deletes_finishes(self):
        server, old, _ = self._logged(OLD)
        server.stores.dedup.put(old + "\x00data", b"the value a cut reclaim left")
        server.enclave.engine.journal.reclaim(old)
        assert old not in stored_objects(server.stores)

    def test_a_transient_fault_goes_up_and_the_re_run_finishes(self):
        server, old, _ = self._logged(OLD)
        server.stores.dedup.put(old + "\x00data", b"the value a cut reclaim left")
        plan = FaultPlan().fail_nth(1, op="delete", store="dedup")
        faulty = faulty_stores(server.stores, plan).dedup
        journal = server.enclave.engine.journal
        journal._tagged = (*journal._tagged[:2], faulty)
        with pytest.raises(FaultError):
            journal.reclaim(old)
        journal.reclaim(old)
        assert old not in stored_objects(server.stores)


class TestReclaimFaults:
    """A store fault after the commit point must not fail the request."""

    @staticmethod
    def _faulty_world() -> tuple[SeGShareServer, str]:
        server = primed(enable_dedup=True)
        old = object_of(server, "/d/f")
        store = server.stores.dedup
        delete = store.delete
        faults = iter([True])

        def flaky(key: str) -> None:
            if key.startswith(old) and next(faults, False):
                raise FaultError("injected")
            delete(key)

        store.delete = flaky
        return server, old

    def test_the_request_commits_and_the_next_commit_finishes(self):
        server, old = self._faulty_world()
        assert server.enclave.handler.put_file("alice", "/d/f", NEW).status is Status.OK
        assert not server.enclave.engine.journal.active
        assert old in stored_objects(server.stores)
        assert [key.rpartition(":")[0] for key in journal_keys(server.stores)] == ["\x00journal:redo"]
        handler = server.enclave.handler
        assert handler.handle("alice", Request(op=Op.PUT_DIR, args=("/e/",))).status is Status.OK
        assert old not in stored_objects(server.stores)
        assert journal_keys(server.stores) == []
        assert engine_stats(server)["reclaimed"] == 1

    def test_a_restart_finishes(self):
        server, old = self._faulty_world()
        assert server.enclave.handler.put_file("alice", "/d/f", NEW).status is Status.OK
        server.restart_enclave()
        assert engine_stats(server)["intents_recovered"] == 1
        assert old not in stored_objects(server.stores)
        assert journal_keys(server.stores) == []


class TestTakeover:
    """The shared store: a successor completes the crashed owner's intent.

    The released object was committed and referenced, so its intent
    removes it, in the re-apply: the takeover's sweep of the crashed
    owner's unreferenced objects comes after and finds it gone.
    """

    @staticmethod
    def _cluster():
        deployment = build_cluster(replicas=2, parallel=True, ca=_CA)
        cluster = deployment.cluster
        assert cluster.handle("u0", Request(op=Op.PUT_DIR, args=("/a/",))).status is Status.OK
        assert cluster.put_file("u0", "/a/f", OLD).status is Status.OK
        cluster.quiesce()
        owner = deployment.server(cluster.membership.ring.owner(path_affinity("/a/f")))
        return deployment, owner, object_of(owner, "/a/f")

    @staticmethod
    def _keys_of(deployment, object_id: str) -> list[str]:
        return [key for key in deployment.backend.keys() if object_id in key]

    def _check(self, deployment, old: str) -> None:
        cluster = deployment.cluster
        assert cluster.stats()["failovers"] == 1
        cluster.quiesce()
        survivor = deployment.server(cluster.membership.ring.members[0])
        survivor.enclave.guard.verify_restored_state()
        assert survivor.enclave.manager.read_content("/a/f") == NEW
        assert self._keys_of(deployment, old) == []
        assert engine_stats(survivor)["intents_recovered"] == 1

    def _reclaim_deletes(self) -> list[int]:
        """The owner's overwrite's reclaim deletes, by effect index."""
        deployment, owner, _ = self._cluster()
        plan = arm(owner)
        start = len(plan.labels)
        assert deployment.cluster.put_file("u0", "/a/f", NEW).status is Status.OK
        return reclaim_deletes(plan.labels[start:])

    def _crash_before(self, step: int) -> None:
        deployment, owner, old = self._cluster()
        plan = arm(owner).crash_after_effects(step)
        assert deployment.cluster.put_file("u0", "/a/f", NEW).status is Status.OK
        plan.detach()
        assert plan.events, f"effect {step}: the crash never fired"
        self._check(deployment, old)

    def test_crash_at_the_reclaim_crashpoint(self):
        """Before the reclaim's first delete, where its named site stood."""
        self._crash_before(self._reclaim_deletes()[0])

    def test_crash_at_every_delete_of_the_reclaim(self):
        deletes = self._reclaim_deletes()
        assert len(deletes) == 2  # the metadata node, which carries chunk 0, and the data value
        for step in deletes:
            self._crash_before(step)


def test_two_replicas_keep_their_reclaim_intents_apart():
    """Both replicas of a shared store release an object while a reader
    holds it, so each closes its epoch with an intent still open; one then
    crashes before its reclaim.  Each writes its intents under its own
    record key, so neither close replaces the other's: takeover completes
    the crashed replica's intent, the survivor's reader closes and reclaims
    its own, and after the crashed replica restarts both objects are gone."""
    deployment = build_cluster(replicas=2, parallel=True, ca=_CA)
    names = sorted(deployment.servers)
    crashed, survivor = (deployment.server(name) for name in names)
    contents = {crashed: OLD, survivor: OLD[::-1]}
    released, streams = {}, {}
    for server, content in contents.items():
        deployment.cluster.quiesce()  # one open epoch on the shared store at a time
        handler = server.enclave.handler
        path = f"/{names[0] if server is crashed else names[1]}"
        assert handler.put_file("u0", path, content).status is Status.OK
        released[server] = object_of(server, path)
        stream = handler.handle("u0", Request(op=Op.GET, args=(path,)))
        chunks = iter(stream.chunks)
        streams[server] = (next(chunks), chunks)
        assert handler.put_file("u0", path, NEW).status is Status.OK
        server.enclave.engine.quiesce()
        assert released[server] in stored_objects(server.stores)
    with pytest.raises(EnclaveCrashed):
        FaultPlan().attach_platform(crashed.platform).kill("the host killed it")
    deployment.cluster.quiesce()  # finds the dead member and runs the takeover
    assert deployment.cluster.stats()["failovers"] == 1
    assert released[crashed] not in stored_objects(survivor.stores)
    first, rest = streams[survivor]
    assert first + b"".join(rest) == contents[survivor]
    assert released[survivor] not in stored_objects(survivor.stores)
    crashed.restart_enclave()
    assert not stored_objects(survivor.stores) & set(released.values())
    assert [key for key in journal_keys(survivor.stores) if "stamp" not in key] == []
