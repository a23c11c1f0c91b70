"""Direct unit tests of the trusted file manager."""

import pytest

from repro.core.file_manager import TrustedFileManager
from repro.errors import FileSystemError
from repro.fsmodel import DirectoryFile
from repro.sgx.protected_fs import CHUNK_SIZE, READ_GROUP
from repro.storage.stores import StoreSet
from tests.support.dedup import object_count, stored_records
from tests.support.platform import engine_for, loaded_enclave

ROOT_KEY = bytes(range(32))


def make_manager(stores=None, root_key=ROOT_KEY, **features):
    enclave = loaded_enclave()
    engine = engine_for(stores or StoreSet.in_memory(), enclave)
    return TrustedFileManager(engine, root_key, enclave, **features)


@pytest.fixture()
def manager():
    return make_manager()


@pytest.fixture()
def dedup_manager():
    return make_manager(enable_dedup=True)


def object_keys(manager) -> set[str]:
    """The objects the store holds, by id."""
    return manager.dedup._pfs.owners("obj:")


class TestContentRecords:
    def test_inline_round_trip(self, manager):
        """Without dedup the payload still lives in an object: a plain one,
        named by its own 32-hex-digit id at refcount 1, never by an hName."""
        manager.write_content("/f", b"plain payload")
        assert manager.read_content("/f") == b"plain payload"
        assert manager.content_size("/f") == 13
        name = manager._pointer_target("/f")
        assert len(name) == 32 and object_keys(manager) == {"obj:" + name}
        assert manager.dedup.refcount(name) == 1
        assert name != manager.dedup.h_name(b"plain payload")

    def test_pointer_round_trip(self, dedup_manager):
        dedup_manager.write_content("/f", b"deduplicated payload")
        assert dedup_manager.read_content("/f") == b"deduplicated payload"
        assert dedup_manager.content_size("/f") == 20

    def test_missing_file(self, manager):
        with pytest.raises(FileSystemError):
            manager.read_content("/ghost")
        with pytest.raises(FileSystemError):
            manager.delete_content("/ghost")

    @pytest.mark.parametrize(
        "before, after", [(False, True), (True, False)], ids=["plain_to_dedup", "dedup_to_plain"]
    )
    def test_files_outlive_a_dedup_toggle(self, before, after):
        """Files written in one mode read, overwrite and release after a
        restart in the other; an object of one kind is never shared with
        an identical upload of the other."""
        stores = StoreSet.in_memory()
        first = make_manager(stores, enable_dedup=before)
        first.write_content("/a", b"same bytes")
        first.write_content("/b", b"doomed")
        manager = make_manager(stores, enable_dedup=after)
        assert manager.read_content("/a") == b"same bytes" and manager.content_size("/a") == 10
        manager.write_content("/c", b"same bytes")
        old_a, old_b, c = (manager._pointer_target(path) for path in ("/a", "/b", "/c"))
        assert old_a != c and manager.dedup.refcount(old_a) == manager.dedup.refcount(c) == 1
        manager.write_content("/a", b"version two")
        manager.delete_content("/b")
        assert manager.dedup.refcount(old_a) == manager.dedup.refcount(old_b) == 0
        assert manager.read_content("/a") == b"version two"
        assert manager.read_content("/c") == b"same bytes"
        live = {manager._pointer_target("/a"), c}
        records = stored_records(manager.dedup)
        assert object_keys(manager) == {records[name][0] for name in live}
        assert set(records) == live

    def test_a_record_of_another_kind_is_a_typed_error(self, manager):
        manager.content.guarded_write("/f", b"\x00raw bytes")
        for read in (manager.read_content, manager.content_size, manager.iter_content):
            with pytest.raises(FileSystemError):
                read("/f")

    def test_overwrite_releases_old_pointer(self, dedup_manager):
        dedup_manager.write_content("/f", b"v1")
        dedup_manager.write_content("/f", b"v2")
        assert object_count(dedup_manager.dedup) == 1
        assert dedup_manager.read_content("/f") == b"v2"


class TestStreaming:
    def test_upload_sink(self, dedup_manager):
        upload = dedup_manager.open_content_upload("/s")
        upload.write(b"part1-")
        upload.write(b"part2")
        upload.finish()
        assert dedup_manager.read_content("/s") == b"part1-part2"

    def test_upload_abort_leaves_nothing(self, dedup_manager):
        upload = dedup_manager.open_content_upload("/s")
        upload.write(b"doomed")
        upload.abort()
        assert not dedup_manager.exists("/s")
        assert object_count(dedup_manager.dedup) == 0

    def test_iter_content_inline(self, manager):
        """A plain file streams from its object one PFS read group at a time."""
        manager.write_content("/f", b"x" * 100_000)
        size, chunks = manager.iter_content("/f")
        pieces = list(chunks)
        assert size == 100_000 and b"".join(pieces) == b"x" * 100_000
        assert len(pieces) == -(-100_000 // (READ_GROUP * CHUNK_SIZE))

    def test_iter_content_dedup(self, dedup_manager):
        dedup_manager.write_content("/f", b"y" * 100_000)
        size, chunks = dedup_manager.iter_content("/f")
        assert size == 100_000
        assert b"".join(chunks) == b"y" * 100_000


class TestDirectoriesAndAcls:
    def test_dir_round_trip(self, manager):
        manager.write_dir("/d/", DirectoryFile(["/d/x", "/d/y/"]))
        assert manager.read_dir("/d/").children == ["/d/x", "/d/y/"]

    def test_acl_lifecycle(self, manager):
        from repro.core.acl import AclFile

        acl = AclFile()
        acl.add_owner("u:alice")
        manager.write_acl("/f", acl)
        assert manager.acl_exists("/f")
        assert manager.read_acl("/f").owners == ["u:alice"]
        manager.delete_acl("/f")
        assert not manager.acl_exists("/f")

    def test_group_store_round_trips(self, manager):
        from repro.core.acl import GroupListFile, MemberListFile

        groups = GroupListFile()
        groups.create("eng", "u:alice")
        manager.write_group_list(groups)
        assert manager.read_group_list().exists("eng")

        members = MemberListFile()
        members.add("eng")
        manager.write_member_list("bob", members)
        assert manager.read_member_list("bob").groups == ["eng"]
        assert manager.read_member_list("ghost").groups == []


class TestAccounting:
    def test_stored_bytes_by_store(self, dedup_manager):
        dedup_manager.write_content("/f", bytes(10_000))
        totals = dedup_manager.stored_bytes()
        assert totals["dedup"] > 10_000  # payload lives in the dedup store
        assert totals["content"] > 0  # pointer record + root dir
        assert totals["group"] == 0

    def test_content_stored_size_follows_pointer(self, dedup_manager, manager):
        dedup_manager.write_content("/f", bytes(50_000))
        manager.write_content("/f", bytes(50_000))
        content_addressed = dedup_manager.content_stored_size("/f")
        plain = manager.content_stored_size("/f")
        # Both report the full payload plus overhead, not just the pointer;
        # they differ only by the length of the object's name.
        assert 50_000 < plain < content_addressed < plain + 200
        assert manager.content.pfs.stored_size(manager._sp("/f")) < 1_000


class TestPathHiding:
    def test_same_key_different_shares_disjoint(self):
        a = make_manager(root_key=bytes(32), hide_paths=True)
        b = make_manager(root_key=bytes(31) + b"\x01", hide_paths=True)
        assert a._sp("/f") != b._sp("/f")

    def test_raw_access_uses_transform(self):
        manager = make_manager(root_key=bytes(32), hide_paths=True)
        for mount, store in ((manager.content, "content"), (manager.group, "group")):
            mount.raw_write("/x", b"blob")
            assert mount.raw_exists("/x")
            assert mount.raw_read("/x") == b"blob"
            assert not getattr(manager._stores, store).exists("/x\x00meta")  # hidden key
            mount.raw_delete("/x")
            assert not mount.raw_exists("/x")

    def test_manager_raw_access_is_the_content_mount(self, manager):
        """core.audit's entry points are the content mount's, not copies."""
        manager.raw_write("/x", b"blob")
        assert manager.raw_exists("/x") and manager.content.raw_read("/x") == b"blob"
        assert not manager.group.raw_exists("/x")


@pytest.fixture()
def cached_manager():
    from repro.core.cache import MetadataCache

    enclave = loaded_enclave()
    engine = engine_for(StoreSet.in_memory(), enclave, cache=MetadataCache(1 << 20, enclave.platform.epc))
    return TrustedFileManager(engine, ROOT_KEY, enclave)


@pytest.mark.parametrize("store", ["content", "group"])
class TestMountCachePolicy:
    """One fill policy for both stores (was two copies of each routine)."""

    def test_raw_read_fills_only_guard_objects(self, cached_manager, store):
        mount = getattr(cached_manager, store)
        cache = cached_manager.engine.cache
        for path in ("/sibling", mount.guard_prefix + "node"):
            mount.raw_write(path, b"data")
        cache.clear()
        assert mount.raw_read("/sibling") == b"data"
        assert not cache.contains(mount.namespace, "/sibling")  # never laundered
        assert mount.raw_read(mount.guard_prefix + "node") == b"data"
        assert cache.contains(mount.namespace, mount.guard_prefix + "node")

    def test_guarded_and_record_reads_fill(self, cached_manager, store):
        mount = getattr(cached_manager, store)
        cache = cached_manager.engine.cache
        mount.guarded_write("/f", b"v")
        mount.raw_write("/rec", b"r")
        cache.clear()
        assert mount.guarded_read("/f") == b"v" and mount.read_record("/rec") == b"r"
        assert cache.contains(mount.namespace, "/f")
        assert cache.contains(mount.namespace, "/rec")
        assert mount.read_record("/absent") is None

    def test_missing_object_is_a_file_system_error(self, cached_manager, store):
        mount = getattr(cached_manager, store)
        for read in (mount.guarded_read, mount.raw_read, mount.guarded_delete):
            with pytest.raises(FileSystemError):
                read("/ghost")

    def test_namespaces_are_disjoint(self, cached_manager, store):
        mount = getattr(cached_manager, store)
        other = cached_manager.group if store == "content" else cached_manager.content
        mount.guarded_write("/f", b"mine")
        assert mount.guarded_read("/f") == b"mine"
        assert not other.raw_exists("/f")
