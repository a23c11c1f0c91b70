"""Encrypted metadata file formats: ACLs, member lists, the group list.

Paper Section IV-B, "File Managers":

1. every ``f ∈ FS`` is stored as a regular (encrypted) file,
2. for each ``f`` an **ACL file** under ``f``'s path plus a suffix stores
   ``f``'s permissions (rP), file owners (rFO) — and, with the Section
   V-B extension, the inherit flag (rI),
3. one **group list file** stores all present groups (G) — and, in this
   implementation, the group-ownership relation rGO (the paper keeps rGO
   in the member lists; centralizing it keeps ownership extension O(1) in
   the group size while preserving every complexity the evaluation
   measures, since membership operations still touch exactly one member
   list),
4. for each user a **member list file** stores the user's memberships
   (rG).

All three formats keep their entries **sorted**, so an update is one
decrypt, one logarithmic search, one insert, one encrypt — the property
behind the flat latency curves of Fig. 4.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.core.model import Permission
from repro.errors import RequestError
from repro.fsmodel.directory import SortedNames
from repro.util.serialization import Reader, Writer

ACL_SUFFIX = ".acl"
GROUP_LIST_PATH = "grouplist"
MEMBER_LIST_PREFIX = "member:"
QUOTA_PREFIX = "quota:"

#: Pseudo-user whose member list is the registry of all known users.
#: The NUL prefix keeps it out of the real user-id namespace.
USER_REGISTRY_ID = "\x00users"


def acl_path(path: str) -> str:
    """The ACL file's location: the file's path plus the ``.acl`` suffix.

    For a directory, the trailing slash is dropped first so the ACL is a
    *sibling* of the directory, exactly as in the paper's Fig. 2 (the ACL
    of ``/D/`` is ``/D.acl``, a child of the root node in the hash tree).
    """
    if path.endswith("/") and path != "/":
        return path[:-1] + ACL_SUFFIX
    return path + ACL_SUFFIX


def member_list_path(user_id: str) -> str:
    return MEMBER_LIST_PREFIX + user_id


def quota_path(user_id: str) -> str:
    """Group-store location of ``user_id``'s quota ledger record."""
    return QUOTA_PREFIX + user_id


#: An ACL entry's permission byte is READ 1 | WRITE 2 | DENY 4.  Both
#: directions are table lookups; a frozenset caches its hash, so the sets
#: decoded here hash once.
_PERMS_FROM_BITS = tuple(
    frozenset(perm for perm, bit in ((Permission.READ, 1), (Permission.WRITE, 2), (Permission.DENY, 4)) if bits & bit)
    for bits in range(8)
)
_PERM_BITS = {perms: bits for bits, perms in enumerate(_PERMS_FROM_BITS)}


class _Owners(SortedNames):
    """A file's owner groups (rFO)."""

    def _missing(self, name: str) -> Exception:
        return RequestError(f"{name!r} does not own this file")


class AclFile:
    """One file's access-control list: owners, permissions, inherit flag.

    ``owners`` and the permission entries are sorted lists of group ids;
    permissions map a group id to a permission set.  An empty permission
    set removes the entry.
    """

    def __init__(self) -> None:
        self._owners = _Owners()
        self._entries: list[tuple[str, frozenset[Permission]]] = []
        self.inherit = False
        # Quota accounting: which user's quota this file's bytes count
        # against (the uploader of the current version) and how many.
        self.accounted_user = ""
        self.accounted_size = 0

    def copy(self) -> "AclFile":
        clone = object.__new__(AclFile)  # no __init__: every field is set here
        clone.__dict__.update(self.__dict__, _owners=self._owners.copy(), _entries=self._entries[:])
        return clone

    # -- owners (rFO) --------------------------------------------------------

    @property
    def owners(self) -> list[str]:
        return list(self._owners)

    def add_owner(self, group_id: str) -> None:
        self._owners.add(group_id)

    def remove_owner(self, group_id: str) -> None:
        if len(self._owners) == 1 and group_id in self._owners:
            raise RequestError("cannot remove the last file owner")
        self._owners.remove(group_id)

    def is_owner(self, group_id: str) -> bool:
        return group_id in self._owners

    # -- permissions (rP) ------------------------------------------------------

    def groups_with_entries(self) -> list[str]:
        return [group for group, _ in self._entries]

    def set_permission(self, group_id: str, perms: frozenset[Permission]) -> None:
        """Insert, replace, or (with an empty set) delete an entry — one
        logarithmic search plus one list operation."""
        index = bisect.bisect_left(self._entries, (group_id, frozenset()))
        present = index < len(self._entries) and self._entries[index][0] == group_id
        if not perms:
            if present:
                del self._entries[index]
            return
        if present:
            self._entries[index] = (group_id, perms)
        else:
            self._entries.insert(index, (group_id, perms))

    def lookup(self, group_id: str) -> frozenset[Permission]:
        index = bisect.bisect_left(self._entries, (group_id, frozenset()))
        if index < len(self._entries) and self._entries[index][0] == group_id:
            return self._entries[index][1]
        return frozenset()

    # -- serialization -----------------------------------------------------------

    def serialize(self) -> bytes:
        w = Writer()
        w.bool(self.inherit)
        w.str(self.accounted_user)
        w.u64(self.accounted_size)
        w.str_list(self.owners)
        w.u32(len(self._entries))
        for group_id, perms in self._entries:
            w.str(group_id)
            w.u8(_PERM_BITS[perms])
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "AclFile":
        r = Reader(data)
        acl = cls()
        acl.inherit = r.bool()
        acl.accounted_user = r.str()
        acl.accounted_size = r.u64()
        acl._owners = _Owners(r.str_list())
        acl._entries = sorted([(r.str(), _PERMS_FROM_BITS[r.u8() & 7]) for _ in range(r.u32())])
        r.expect_end()
        return acl


class MemberListFile(SortedNames):
    """One user's group memberships (rG), sorted.

    Contains only this user's memberships — which is why membership
    operations are "independent of the number of members the group had
    before" (paper, experiment two).
    """

    @property
    def groups(self) -> list[str]:
        return list(self._names)

    def update(self, group_ids: Iterable[str]) -> None:
        """Bulk merge: one sorted union instead of per-id list inserts.

        Seeding a 10^5-member group registers 10^5 users; per-id inserts
        would make that quadratic in list moves."""
        self._names = sorted({*self._names, *group_ids})

    def _missing(self, name: str) -> Exception:
        return RequestError(f"user is not a member of {name!r}")


class GroupListFile:
    """All present groups (G) with their owner groups (rGO), sorted."""

    def __init__(self) -> None:
        # Sorted list of (group_id, sorted owner group ids).
        self._entries: list[tuple[str, list[str]]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "GroupListFile":
        clone = GroupListFile()
        clone._entries = [(group, owners[:]) for group, owners in self._entries]
        return clone

    def groups(self) -> list[str]:
        return [group for group, _ in self._entries]

    def _index(self, group_id: str) -> int | None:
        index = bisect.bisect_left(self._entries, (group_id, []))
        if index < len(self._entries) and self._entries[index][0] == group_id:
            return index
        return None

    def exists(self, group_id: str) -> bool:
        return self._index(group_id) is not None

    def create(self, group_id: str, owner_group: str) -> None:
        if self.exists(group_id):
            raise RequestError(f"group {group_id!r} already exists")
        index = bisect.bisect_left(self._entries, (group_id, []))
        self._entries.insert(index, (group_id, [owner_group]))

    def delete(self, group_id: str) -> None:
        index = self._index(group_id)
        if index is None:
            raise RequestError(f"no group {group_id!r}")
        del self._entries[index]

    def owners(self, group_id: str) -> list[str]:
        index = self._index(group_id)
        if index is None:
            raise RequestError(f"no group {group_id!r}")
        return list(self._entries[index][1])

    def add_owner(self, group_id: str, owner_group: str) -> None:
        index = self._index(group_id)
        if index is None:
            raise RequestError(f"no group {group_id!r}")
        owner_list = self._entries[index][1]
        pos = bisect.bisect_left(owner_list, owner_group)
        if pos < len(owner_list) and owner_list[pos] == owner_group:
            return
        owner_list.insert(pos, owner_group)

    def serialize(self) -> bytes:
        w = Writer()
        w.u32(len(self._entries))
        for group_id, owner_list in self._entries:
            w.str(group_id)
            w.str_list(owner_list)
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "GroupListFile":
        r = Reader(data)
        lst = cls()
        lst._entries = sorted([(r.str(), sorted(r.str_list())) for _ in range(r.u32())])
        r.expect_end()
        return lst
