"""Verified relation files stay decoded in the enclave (docs/PERF.md §23, §28).

Each metadata cache entry has a slot for the object decoded from its own
bytes: the first decoded read fills it (or a write-back, with the object
the writer serialized), and every ``read_*`` hands out a copy.  These
tests pin what makes that safe: a caller's mutation never reaches the
slot, the slot is per enclave and dies with its entry, and a decoded
object is served only where the plaintext would be, so it cannot hide a
rollback.  Without a cache nothing is kept: every read decodes.
"""

from types import SimpleNamespace

import pytest

from repro.core.acl import AclFile, MemberListFile, acl_path
from repro.core.coherence import CoherenceManager
from repro.core.model import Permission
from repro.core.requests import Op
from repro.errors import RollbackDetected
from repro.fsmodel import DirectoryFile
from repro.netsim.coherence import CoherenceBoard
from tests.core.conftest import ROOT_KEY, build_world
from tests.support.platform import loaded_enclave

CACHE_BYTES = 1 << 20


def snapshot_matching(store, prefix):
    return {key: store.get(key) for key in store.keys() if key.startswith(prefix)}


def _share(cache_bytes):
    """Alice owns /d/ and /d/f; bob is in eng, which may read /d/f."""
    world = build_world(cache_bytes=cache_bytes)
    world.handler.put_dir("alice", "/d/")
    world.handler.put_file("alice", "/d/f", b"x")
    world.handler.add_user("alice", "bob", "eng")
    world.handler.set_permission("alice", "/d/f", "eng", "r")
    return world


@pytest.fixture()
def shared():
    """The share, cached."""
    return _share(CACHE_BYTES)


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
    for world in (shared, _share(None)):
        before = read(world.manager).serialize()
        first = read(world.manager)
        scribble(first)
        assert first.serialize() != before
        again = read(world.manager)
        assert again is not first
        assert again.serialize() == before


def _counting_decodes(monkeypatch, *kinds):
    """Count ``deserialize`` calls per class."""
    counts = dict.fromkeys(kinds, 0)
    for kind in kinds:
        original = kind.deserialize.__func__

        def counting(cls, data, original=original, kind=kind):
            counts[kind] += 1
            return original(cls, data)

        monkeypatch.setattr(kind, "deserialize", classmethod(counting))
    return counts


def test_reads_are_served_from_the_memo(shared, monkeypatch):
    """The same entry decodes once: later reads are copies of its slot."""
    counts = _counting_decodes(monkeypatch, AclFile, MemberListFile)
    shared.manager.read_acl("/d/f")
    for _ in range(3):
        assert shared.access.auth_f("bob", Permission.READ, "/d/f")
    assert counts == {AclFile: 1, MemberListFile: 1}


def test_one_plaintext_decodes_once_per_class(shared, monkeypatch):
    """An empty directory and an empty member list are the same bytes: each
    entry's slot holds its own class, and a slot serves only its decoder."""
    empty = DirectoryFile().serialize()
    assert empty == MemberListFile().serialize()
    cache = shared.manager.engine.cache
    cache.put("content", "/e/", empty)
    cache.put("group", "member:nobody", empty)
    counts = _counting_decodes(monkeypatch, DirectoryFile, MemberListFile)
    for _ in range(2):
        assert isinstance(cache.get("content", "/e/", DirectoryFile.deserialize), DirectoryFile)
        assert isinstance(cache.get("group", "member:nobody", MemberListFile.deserialize), MemberListFile)
    assert counts == {DirectoryFile: 1, MemberListFile: 1}
    assert isinstance(cache.get("content", "/e/", MemberListFile.deserialize), MemberListFile)


def _evict(world):
    cache = world.manager.engine.cache
    for i in range(CACHE_BYTES // 4096 + 1):
        cache.put("content", f"/filler{i}", bytes(4096))


def _peer_publishes(world):
    """A peer's commit names /d/: this replica's next read discards it."""
    engine, board = world.manager.engine, CoherenceBoard(capacity=8)
    engine.attach_coherence(CoherenceManager(board, ROOT_KEY, engine))
    peer = SimpleNamespace(enclave=loaded_enclave())  # a publisher touches only its enclave
    CoherenceManager(board, ROOT_KEY, engine=peer).publish([("content", "/d/")], "peer")


#: The five ways an entry goes; each takes its slot with it.
ENTRY_ENDS = {
    "put": lambda world: world.manager.engine.cache.put(  # new bytes under the key
        "content", "/d/", DirectoryFile(["/d/f", "/d/g"]).serialize()
    ),
    "discard": lambda world: world.manager.engine.invalidate("content", "/d/"),
    "clear": lambda world: world.manager.engine.drop_derived_state(),
    "eviction": _evict,
    "coherence": _peer_publishes,
}


@pytest.mark.parametrize("end", ENTRY_ENDS)
def test_a_slot_dies_with_its_entry(shared, monkeypatch, end):
    cache = shared.manager.engine.cache
    counts = _counting_decodes(monkeypatch, DirectoryFile)
    shared.manager.read_dir("/d/")
    entry = cache._entries["content", "/d/"]
    assert entry.slot is not None and counts[DirectoryFile] == 1
    ENTRY_ENDS[end](shared)
    children = shared.manager.read_dir("/d/").children
    assert children == (["/d/f", "/d/g"] if end == "put" else ["/d/f"])
    assert cache._entries["content", "/d/"] is not entry
    assert counts[DirectoryFile] == 2  # decoded from the new entry's bytes


def test_two_enclaves_in_one_process_share_no_memo_entry():
    worlds = [build_world(cache_bytes=CACHE_BYTES), build_world(cache_bytes=CACHE_BYTES)]
    for world in worlds:
        world.handler.put_file("alice", "/f", b"x")
        world.handler.add_user("alice", "bob", "eng")
        assert world.access.auth_f("alice", None, "/f")
    first, second = (
        {key: entry.slot[1] for key, entry in world.manager.engine.cache._entries.items() if entry.slot}
        for world in worlds
    )
    assert first and second
    assert set(first) & set(second)  # the same entries ...
    assert not {id(value) for value in first.values()} & {id(value) for value in second.values()}  # ... apart
    worlds[0].manager.engine.cache.put("content", "/only-first/", DirectoryFile().serialize())
    assert worlds[0].manager.read_dir("/only-first/").children == []
    assert ("content", "/only-first/") not in worlds[1].manager.engine.cache._entries


@pytest.mark.parametrize("cache_bytes", [None, CACHE_BYTES], ids=["uncached", "cached"])
def test_a_warm_memo_does_not_hide_an_acl_rollback(cache_bytes):
    """With the cache on, the ACL's slot is warm when the host restores the
    old sealed blob, yet the next cold read's guard walk catches it: a slot
    is served only with its entry, and a verified read makes the entry."""
    world = build_world(rollback=True, cache_bytes=cache_bytes)
    store = world.stores.content
    world.handler.put_file("alice", "/f", b"secret")
    world.request("alice", Op.ADD_USER, "bob", "eng")
    world.request("alice", Op.SET_PERM, "/f", "eng", "r")
    assert world.access.auth_f("bob", Permission.READ, "/f")
    old_acl = snapshot_matching(store, acl_path("/f"))
    world.request("alice", Op.SET_PERM, "/f", "eng", "")
    assert not world.access.auth_f("bob", Permission.READ, "/f")
    cache = world.manager.engine.cache
    if cache is not None:
        assert cache._entries["content", acl_path("/f")].slot is not None
    for key, value in old_acl.items():
        store.put(key, value)
    if cache is not None:  # the next read is cold: PFS decrypt and guard walk
        cache.discard("content", acl_path("/f"))
    with pytest.raises(RollbackDetected):
        world.access.auth_f("bob", Permission.READ, "/f")
