"""The access control component (paper Table IV and Section V-B).

Implements the internal operations ``auth_f``, ``auth_g``, ``exists_g``
and the relation updates (``updateRel``) over the encrypted metadata
files, via the trusted file manager:

* ``auth_f(u, p, f)`` — ∃g: (u,g) ∈ rG ∧ ((p,g,f) ∈ rP ∨ (g,f) ∈ rFO).
  With the inheritance extension, a permission entry for group g on f
  takes precedence over g's entry on f's parent; a ``pdeny`` entry is
  such an override that grants nothing.
* ``auth_g(u, g2)`` — ∃g1: (u,g1) ∈ rG ∧ (g1,g2) ∈ rGO.

Every user is implicitly a member of their default group ``g_u``, so the
group machinery uniformly covers individual-user sharing.

:class:`AccessControl` is also the ``enclave_acl`` authorization backend
(``repro.core.authz``): with enclave enforcement, granting and revoking
is purely a metadata edit — the O(1)-revocation property the head-to-head
benchmark measures against the IBBE envelope backend, which extends this
class.  All mutations run inside the caller's ``StorageEngine``
transaction (the request handler brackets every mutating opcode), so
crash recovery, group commit and cross-replica coherence are identical
across backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.acl import USER_REGISTRY_ID
from repro.core.file_manager import TrustedFileManager
from repro.core.model import (
    Permission,
    default_group,
    is_default_group,
    validate_group_id,
    validate_user_id,
)
from repro.errors import RequestError
from repro.fsmodel import parent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sgx.enclave import Enclave

_USER_LIST_PATH = USER_REGISTRY_ID

#: Every backend reports the same counter keys so benchmark cells are
#: directly comparable; the metadata backend keeps the crypto counters
#: at zero.
COUNTER_KEYS = (
    "membership_updates",
    "revocations",
    "rekeys",
    "member_envelopes_wrapped",
    "file_envelopes_wrapped",
    "file_envelopes_rewrapped",
    "bytes_reencrypted",
)


class AccessControl:
    """Authorization checks and relation updates (the ``enclave_acl`` backend)."""

    #: Registry key (``SeGShareOptions.authz_backend``) and stats label.
    name = "enclave_acl"

    def __init__(
        self,
        manager: TrustedFileManager,
        enclave: "Enclave",
    ) -> None:
        self._manager = manager
        self._enclave = enclave
        self._counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}

    # -- relation lookups -----------------------------------------------------

    def user_groups(self, user_id: str) -> set[str]:
        """All groups of ``u`` per rG, plus the implicit default group."""
        groups = set(self._manager.read_member_list(user_id).groups)
        groups.add(default_group(user_id))
        return groups

    def exists_g(self, group_id: str) -> bool:
        """Table IV ``exists_g``; default groups always exist."""
        if is_default_group(group_id):
            return True
        return self._manager.read_group_list().exists(group_id)

    def auth_g(self, user_id: str, group_id: str) -> bool:
        """May ``user_id`` change group ``group_id``'s membership?"""
        if is_default_group(group_id):
            return False  # default groups are immutable
        group_list = self._manager.read_group_list()
        return group_list.exists(group_id) and not self.user_groups(user_id).isdisjoint(group_list.owners(group_id))

    def auth_f(self, user_id: str, perm: Permission | None, path: str) -> bool:
        """May ``user_id`` exercise ``perm`` on the file at ``path``?

        ``perm=None`` is the paper's ``auth_f(u, "", f)`` — an
        ownership-only check (used by ``set_p`` and the other
        owner-restricted requests).
        """
        acl = self._manager.find_acl(path) if self._manager.exists(path) else None
        if acl is None:
            return False  # the root directory has no ACL; nobody "owns" it
        groups = self.user_groups(user_id)
        if any(acl.is_owner(group) for group in groups):
            return True
        if perm is None:
            return False

        parent_acl = self._manager.find_acl(parent(path)) if acl.inherit and path != "/" else None

        granted = False
        for group in groups:
            perms = acl.lookup(group)
            if not perms and parent_acl is not None:
                perms = parent_acl.lookup(group)
            if Permission.DENY in perms:
                # Deny wins: an explicit pdeny for ANY of the user's groups
                # vetoes grants obtained through other memberships — the
                # only reading under which pdeny can actually exclude a
                # user who also holds a broader group grant.
                return False
            if perm in perms:
                granted = True
        return granted

    # -- relation updates (updateRel) --------------------------------------------

    def create_group(self, creator_id: str, group_id: str) -> None:
        """updateRel(G, G ∪ g): new group owned by the creator's default group.

        Per Algo. 1 the creator also becomes the group's first member.
        """
        validate_group_id(group_id)
        # Register BEFORE the first member-list write: the group guard
        # enumerates leaves through the registry, so a member list whose
        # leaf enters a guard bucket while its user is still unregistered
        # makes every verify of that bucket fail until registration.
        self._register_user(creator_id)
        group_list = self._manager.read_group_list()
        group_list.create(group_id, default_group(creator_id))
        self._manager.write_group_list(group_list)
        members = self._manager.read_member_list(creator_id)
        members.add(group_id)
        self._manager.write_member_list(creator_id, members)
        self._counters["membership_updates"] += 1

    def add_member(self, user_id: str, group_id: str) -> None:
        """updateRel(g, g ∪ u): touches only ``user_id``'s member list."""
        self._register_user(user_id)  # before the write — see create_group
        members = self._manager.read_member_list(user_id)
        members.add(group_id)
        self._manager.write_member_list(user_id, members)
        self._counters["membership_updates"] += 1

    def remove_member(self, user_id: str, group_id: str) -> None:
        """updateRel(g, g \\ u): immediate revocation, one member list."""
        members = self._manager.read_member_list(user_id)
        members.remove(group_id)
        self._manager.write_member_list(user_id, members)
        self._counters["membership_updates"] += 1
        self._counters["revocations"] += 1

    def add_group_owner(self, group_id: str, owner_group: str) -> None:
        """Extend rGO: ``owner_group`` now also owns ``group_id``."""
        group_list = self._manager.read_group_list()
        if not is_default_group(owner_group) and not group_list.exists(owner_group):
            raise RequestError(f"no group {owner_group!r}")
        group_list.add_owner(group_id, owner_group)
        self._manager.write_group_list(group_list)
        self._counters["membership_updates"] += 1

    def delete_group(self, group_id: str) -> int:
        """Delete a group: scan all member lists (the paper's known-slow path).

        Returns the number of member lists that were updated.  The whole
        scan runs as ONE batch: all-or-nothing under the undo journal,
        and the rollback guards flush their node and anchor once at
        commit instead of per touched member list.  The metadata cache
        (when enabled) serves the group list and every previously seen
        member list from enclave memory, so the scan's per-user cost
        drops to one decrypt per cold list.
        """
        with self._manager.transaction("delete_group"):
            group_list = self._manager.read_group_list()
            group_list.delete(group_id)
            self._manager.write_group_list(group_list)
            touched = 0
            for user_id in self.known_users():
                members = self._manager.read_member_list(user_id)
                if group_id in members:
                    members.remove(group_id)
                    self._manager.write_member_list(user_id, members)
                    touched += 1
        self._counters["membership_updates"] += touched + 1
        self._counters["revocations"] += 1
        return touched

    def bootstrap_group(
        self, owner_id: str, group_id: str, members: Iterable[str]
    ) -> None:
        """Create ``group_id`` with ``members`` as ONE transaction.

        The benchmark seeding path: equivalent to ``create_group`` plus
        N ``add_member`` calls, but the user registry is read and written
        once — before the first member-list write, see ``create_group`` —
        so seeding 10^5 members does not go quadratic in registry
        rewrites.  Crypto backends key the group for the full roster in
        the same span.
        """
        roster = list(members)
        validate_group_id(group_id)
        for user_id in (owner_id, *roster):
            validate_user_id(user_id)
        with self._manager.transaction("authz_bootstrap"):
            registry = self._manager.read_member_list(_USER_LIST_PATH)
            registry.update([owner_id, *roster])
            self._manager.write_member_list(_USER_LIST_PATH, registry)
            group_list = self._manager.read_group_list()
            group_list.create(group_id, default_group(owner_id))
            self._manager.write_group_list(group_list)
            for user_id in (owner_id, *roster):
                member_list = self._manager.read_member_list(user_id)
                member_list.add(group_id)
                self._manager.write_member_list(user_id, member_list)
            self._counters["membership_updates"] += len(roster) + 1
            self._bootstrap_crypto(owner_id, group_id, roster)

    def _bootstrap_crypto(
        self, owner_id: str, group_id: str, members: list[str]
    ) -> None:
        """Hook for crypto backends to key the freshly seeded group."""

    # -- grant lifecycle hooks ---------------------------------------------------
    #
    # Called by the request handler AFTER the corresponding ACL mutation,
    # inside the same transaction.  Enclave-enforced ACLs need no state
    # here; envelope backends maintain their per-file key records.

    def on_grant(self, path: str, group_id: str) -> None:
        """``group_id`` gained an entry (permission or ownership) on ``path``."""

    def on_grant_removed(self, path: str, group_id: str) -> None:
        """``group_id`` lost its entry on ``path``."""

    def on_file_removed(self, path: str) -> None:
        """``path`` (and its ACL) was deleted."""

    def on_file_moved(self, src: str, dst: str) -> None:
        """``src`` was re-encrypted under ``dst``'s path key by a move."""

    # -- maintenance -------------------------------------------------------------

    def reconcile(self) -> dict[str, int]:
        """Flush deferred authorization work (lazy envelope re-wraps).

        Runs in its own storage transaction and returns per-call work
        counters; enclave-enforced ACLs owe nothing and return ``{}``.
        """
        return {}

    def counters(self) -> dict[str, int]:
        """Cumulative work counters (:data:`COUNTER_KEYS`)."""
        return dict(self._counters)

    # -- user registry (supports the delete-group scan) ----------------------------

    def known_users(self) -> list[str]:
        """Users with a member list — the group store's root listing."""
        return self._manager.read_member_list(_USER_LIST_PATH).groups

    def _register_user(self, user_id: str) -> None:
        registry = self._manager.read_member_list(_USER_LIST_PATH)
        if user_id not in registry:
            registry.add(user_id)
            self._manager.write_member_list(_USER_LIST_PATH, registry)
