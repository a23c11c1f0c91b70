"""Verified relation files stay decoded in the enclave (docs/PERF.md §23).

``TrustedFileManager`` keeps one bounded FIFO per enclave mapping (class,
plaintext a guarded read returned) to the decoded object, and every
``read_*`` hands out a copy.  These tests pin what makes that safe: a
caller's mutation never reaches the memo, the memo is bounded and per
enclave, and it is consulted only after the guarded read, so it cannot
hide a rollback.
"""

import pytest

from repro.core.acl import AclFile, MemberListFile, acl_path
from repro.core.file_manager import DECODED_FILES
from repro.core.model import Permission
from repro.errors import RollbackDetected
from repro.fsmodel import DirectoryFile
from tests.core.conftest import build_world


def snapshot_matching(store, prefix):
    return {key: store.get(key) for key in store.keys() if key.startswith(prefix)}


@pytest.fixture()
def shared():
    """Alice owns /d/ and /d/f; bob is in eng, which may read /d/f."""
    world = build_world()
    world.handler.put_dir("alice", "/d/")
    world.handler.put_file("alice", "/d/f", b"x")
    world.handler.add_user("alice", "bob", "eng")
    world.handler.set_permission("alice", "/d/f", "eng", "r")
    return world


def _scribble_acl(acl):
    acl.add_owner("u:mallory")
    acl.set_permission("eng", frozenset({Permission.WRITE}))
    acl.inherit = True
    acl.accounted_user = "mallory"


def _scribble_dir(directory):
    directory.add("/d/evil")
    directory.remove("/d/f")


def _scribble_members(members):
    members.add("admins")
    members.remove("eng")


def _scribble_groups(groups):
    groups.create("admins", "u:mallory")
    groups.add_owner("eng", "u:mallory")  # an owner list inside an entry


READERS = {
    "acl": (lambda m: m.read_acl("/d/f"), _scribble_acl),
    "dir": (lambda m: m.read_dir("/d/"), _scribble_dir),
    "member_list": (lambda m: m.read_member_list("bob"), _scribble_members),
    "group_list": (lambda m: m.read_group_list(), _scribble_groups),
}


@pytest.mark.parametrize("kind", READERS)
def test_mutating_a_read_object_does_not_change_the_next_read(shared, kind):
    read, scribble = READERS[kind]
    before = read(shared.manager).serialize()
    first = read(shared.manager)
    scribble(first)
    assert first.serialize() != before
    again = read(shared.manager)
    assert again is not first
    assert again.serialize() == before


def test_reads_are_served_from_the_memo(shared):
    """The same plaintext decodes once: later reads are copies of one object."""
    memo = shared.manager._decoded_files
    shared.manager.read_acl("/d/f")
    size = len(memo)
    for _ in range(3):
        assert shared.access.auth_f("bob", Permission.READ, "/d/f")
    assert len(memo) == size


def test_one_plaintext_decodes_once_per_class(shared):
    """An empty directory and an empty member list are the same bytes."""
    empty = DirectoryFile().serialize()
    assert empty == MemberListFile().serialize()
    assert isinstance(shared.manager._decoded(DirectoryFile, empty), DirectoryFile)
    assert isinstance(shared.manager._decoded(MemberListFile, empty), MemberListFile)


def test_the_memo_is_bounded_and_evicts_in_insertion_order(shared):
    manager = shared.manager
    memo = manager._decoded_files
    plaintexts = [DirectoryFile([f"/{i}"]).serialize() for i in range(DECODED_FILES + 10)]
    for i, plaintext in enumerate(plaintexts):
        assert manager._decoded(DirectoryFile, plaintext).children == [f"/{i}"]
        assert len(memo) <= DECODED_FILES
    newest = [(DirectoryFile, plaintext) for plaintext in plaintexts[-DECODED_FILES:]]
    assert list(memo) == newest
    # A hit does not reorder: first in, first out.
    manager._decoded(DirectoryFile, plaintexts[-DECODED_FILES])
    manager._decoded(DirectoryFile, DirectoryFile(["/new"]).serialize())
    assert list(memo)[0] == newest[1]


def test_two_enclaves_in_one_process_share_no_memo_entry():
    worlds = [build_world(), build_world()]
    for world in worlds:
        world.handler.put_file("alice", "/f", b"x")
        world.handler.add_user("alice", "bob", "eng")
        assert world.access.auth_f("alice", None, "/f")
    first, second = (world.manager._decoded_files for world in worlds)
    assert first and second and first is not second
    assert set(first) & set(second)  # the same plaintexts ...
    assert not {id(value) for value in first.values()} & {id(value) for value in second.values()}  # ... apart
    only_first = DirectoryFile(["/only-first"]).serialize()
    worlds[0].manager._decoded(DirectoryFile, only_first)
    assert (DirectoryFile, only_first) not in second


@pytest.mark.parametrize("cache_bytes", [None, 1 << 20], ids=["uncached", "cached"])
def test_a_warm_memo_does_not_hide_an_acl_rollback(cache_bytes):
    """The memo holds both ACL versions, yet restoring the old sealed blob
    is caught by the next cold read's guard walk: the memo is looked up
    only with plaintext a guarded read returned."""
    world = build_world(rollback=True, cache_bytes=cache_bytes)
    store = world.stores.content
    world.handler.put_file("alice", "/f", b"secret")
    world.handler.add_user("alice", "bob", "eng")
    world.handler.set_permission("alice", "/f", "eng", "r")
    assert world.access.auth_f("bob", Permission.READ, "/f")
    old_acl = snapshot_matching(store, acl_path("/f"))
    world.handler.set_permission("alice", "/f", "eng", "")
    assert not world.access.auth_f("bob", Permission.READ, "/f")
    assert sum(kind is AclFile for kind, _ in world.manager._decoded_files) >= 2
    for key, value in old_acl.items():
        store.put(key, value)
    if world.manager.engine.cache is not None:
        world.manager.engine.cache.clear()  # the next read is cold: PFS decrypt and guard walk
    with pytest.raises(RollbackDetected):
        world.access.auth_f("bob", Permission.READ, "/f")
