"""ACL, member-list, and group-list file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acl import (
    AclFile,
    GroupListFile,
    MemberListFile,
    acl_path,
)
from repro.core.model import Permission
from repro.errors import RequestError

R = frozenset({Permission.READ})
RW = frozenset({Permission.READ, Permission.WRITE})
DENY = frozenset({Permission.DENY})


class TestAclPath:
    def test_content_file(self):
        assert acl_path("/D/F") == "/D/F.acl"

    def test_directory_acl_is_a_sibling(self):
        # Fig. 2: the ACL of /D/ is /D.acl, a child of the root node.
        assert acl_path("/D/") == "/D.acl"

    def test_root(self):
        assert acl_path("/") == "/.acl"


class TestAclFile:
    def test_owners_sorted_and_unique(self):
        acl = AclFile()
        acl.add_owner("z")
        acl.add_owner("a")
        acl.add_owner("z")
        assert acl.owners == ["a", "z"]
        assert acl.is_owner("a") and not acl.is_owner("b")

    def test_last_owner_protected(self):
        acl = AclFile()
        acl.add_owner("only")
        with pytest.raises(RequestError):
            acl.remove_owner("only")

    def test_remove_owner(self):
        acl = AclFile()
        acl.add_owner("a")
        acl.add_owner("b")
        acl.remove_owner("a")
        assert acl.owners == ["b"]

    def test_remove_non_owner_raises(self):
        acl = AclFile()
        acl.add_owner("a")
        with pytest.raises(RequestError):
            acl.remove_owner("ghost")

    def test_set_and_lookup_permission(self):
        acl = AclFile()
        acl.set_permission("eng", RW)
        acl.set_permission("sales", R)
        assert acl.lookup("eng") == RW
        assert acl.lookup("sales") == R
        assert acl.lookup("ghost") == frozenset()

    def test_replace_permission(self):
        acl = AclFile()
        acl.set_permission("eng", RW)
        acl.set_permission("eng", DENY)
        assert acl.lookup("eng") == DENY
        assert acl.groups_with_entries() == ["eng"]

    def test_empty_set_removes_entry(self):
        acl = AclFile()
        acl.set_permission("eng", R)
        acl.set_permission("eng", frozenset())
        assert acl.groups_with_entries() == []
        # Removing a non-existent entry is a no-op, not an error.
        acl.set_permission("ghost", frozenset())

    def test_round_trip(self):
        acl = AclFile()
        acl.add_owner("u:alice")
        acl.add_owner("leads")
        acl.set_permission("eng", RW)
        acl.set_permission("all", DENY)
        acl.inherit = True
        restored = AclFile.deserialize(acl.serialize())
        assert restored.owners == acl.owners
        assert restored.lookup("eng") == RW
        assert restored.lookup("all") == DENY
        assert restored.inherit is True

    def test_groups_with_entries_sorted(self):
        acl = AclFile()
        for g in ("zz", "aa", "mm"):
            acl.set_permission(g, R)
        assert acl.groups_with_entries() == ["aa", "mm", "zz"]


class TestMemberListFile:
    def test_sorted_membership(self):
        members = MemberListFile()
        for g in ("z", "a", "m"):
            members.add(g)
        assert members.groups == ["a", "m", "z"]
        assert "m" in members
        assert len(members) == 3

    def test_add_idempotent(self):
        members = MemberListFile()
        members.add("g")
        members.add("g")
        assert len(members) == 1

    def test_remove_missing_raises(self):
        with pytest.raises(RequestError):
            MemberListFile().remove("ghost")

    def test_round_trip(self):
        members = MemberListFile()
        members.add("b")
        members.add("a")
        assert MemberListFile.deserialize(members.serialize()).groups == ["a", "b"]


class TestGroupListFile:
    def test_create_and_owners(self):
        groups = GroupListFile()
        groups.create("eng", "u:alice")
        assert groups.exists("eng")
        assert groups.owners("eng") == ["u:alice"]

    def test_duplicate_create_raises(self):
        groups = GroupListFile()
        groups.create("eng", "u:alice")
        with pytest.raises(RequestError):
            groups.create("eng", "u:bob")

    def test_add_owner_idempotent_and_sorted(self):
        groups = GroupListFile()
        groups.create("eng", "z-owners")
        groups.add_owner("eng", "a-owners")
        groups.add_owner("eng", "a-owners")
        assert groups.owners("eng") == ["a-owners", "z-owners"]

    def test_delete(self):
        groups = GroupListFile()
        groups.create("eng", "o")
        groups.delete("eng")
        assert not groups.exists("eng")
        with pytest.raises(RequestError):
            groups.delete("eng")

    def test_unknown_group_owner_lookup(self):
        with pytest.raises(RequestError):
            GroupListFile().owners("ghost")

    def test_round_trip(self):
        groups = GroupListFile()
        groups.create("b", "o1")
        groups.create("a", "o2")
        groups.add_owner("b", "o3")
        restored = GroupListFile.deserialize(groups.serialize())
        assert restored.groups() == ["a", "b"]
        assert restored.owners("b") == ["o1", "o3"]


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=15),
        st.sets(st.sampled_from(list(Permission)), min_size=1).map(frozenset),
        max_size=20,
    ),
    st.booleans(),
)
def test_acl_round_trip_property(entries, inherit):
    acl = AclFile()
    acl.add_owner("owner")
    acl.inherit = inherit
    for group, perms in entries.items():
        acl.set_permission(group, perms)
    restored = AclFile.deserialize(acl.serialize())
    assert restored.inherit == inherit
    for group, perms in entries.items():
        assert restored.lookup(group) == perms
    assert restored.groups_with_entries() == sorted(entries)
