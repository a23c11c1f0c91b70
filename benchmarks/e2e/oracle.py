"""Harness-side model of the shared file system: the outcome oracle.

The schedule generator applies every operation to this model *as it
generates it*, so each op carries the outcome the access-control model
says it must have — bytes, a listing, plain OK, or DENIED.  The model
re-states the paper's rules (ownership through default groups, group
grants, one level of inheritance, non-existence reads as DENIED) in a
few lines; it deliberately knows nothing of how the server stores them.

Operations whose outcome would be a *state* error (removing a non-member,
creating over an existing path) raise ``ModelError`` here: generators
never emit them, so a schedule contains only OK and DENIED outcomes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.model import default_group, is_default_group

ROOT = "/"


class ModelError(Exception):
    """The generator asked for an op the server would answer with ERROR."""


@dataclass
class Node:
    """A file or directory with its ACL."""

    owner: str
    is_dir: bool
    inherit: bool = False
    grants: dict[str, str] = field(default_factory=dict)  # group -> "r"/"w"/"rw"
    children: set[str] = field(default_factory=set)  # directories only
    digest: bytes = b""  # files only
    size: int = 0


@dataclass(frozen=True)
class Expect:
    """What the server must answer: ``kind`` is ok/denied/bytes/listing/stat/acl."""

    kind: str
    value: Any = None


DENIED = Expect("denied")
OK = Expect("ok")


def digest_of(content: bytes) -> bytes:
    return hashlib.sha256(content).digest()


def parent_of(path: str) -> str:
    trimmed = path[:-1] if path.endswith("/") else path
    return trimmed[: trimmed.rfind("/") + 1]


class Model:
    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {ROOT: Node(owner="", is_dir=True)}
        self.group_owner: dict[str, str] = {}
        self.memberships: dict[str, set[str]] = {}
        #: Sum of live file sizes — the denominator of stored_bytes_per_user_byte.
        self.live_bytes = 0

    # -- access control (paper Algo. 1, auth_f / auth_g) ---------------------------

    def groups_of(self, user: str) -> set[str]:
        return {default_group(user)} | self.memberships.get(user, set())

    def _owns(self, user: str, path: str) -> bool:
        node = self.nodes.get(path)
        return node is not None and path != ROOT and node.owner == user

    def allowed(self, user: str, perm: str, path: str) -> bool:
        node = self.nodes.get(path)
        if node is None or path == ROOT:
            return False
        if node.owner == user:
            return True
        parent = self.nodes[parent_of(path)] if node.inherit else None
        for group in self.groups_of(user):
            perms = node.grants.get(group, "")
            if not perms and parent is not None:
                perms = parent.grants.get(group, "")
            if perm in perms:
                return True
        return False

    def _owns_group(self, user: str, group: str) -> bool:
        return self.group_owner.get(group) == user

    # -- reads ---------------------------------------------------------------------

    def download(self, user: str, path: str) -> Expect:
        if not self.allowed(user, "r", path):
            return DENIED
        node = self.nodes[path]
        return Expect("bytes", (node.digest, node.size))

    def listdir(self, user: str, path: str) -> Expect:
        if path != ROOT and not self.allowed(user, "r", path):
            return DENIED
        return Expect("listing", frozenset(self.nodes[path].children))

    def stat(self, user: str, path: str) -> Expect:
        if path != ROOT and not self.allowed(user, "r", path):
            return DENIED
        node = self.nodes[path]
        size = len(node.children) if node.is_dir else node.size
        return Expect("stat", (node.is_dir, size, node.inherit))

    def get_acl(self, user: str, path: str) -> Expect:
        if not self._owns(user, path):
            return DENIED
        node = self.nodes[path]
        entries = frozenset(node.grants.items())
        return Expect("acl", ((default_group(node.owner),), entries, node.inherit))

    def my_groups(self, user: str) -> Expect:
        return Expect("listing", frozenset(self.groups_of(user)))

    # -- writes --------------------------------------------------------------------

    def _may_create_in(self, user: str, parent: str) -> bool:
        if parent not in self.nodes:
            raise ModelError(f"no directory {parent}")
        return parent == ROOT or self.allowed(user, "w", parent)

    def mkdir(self, user: str, path: str) -> Expect:
        if path in self.nodes or path[:-1] in self.nodes:
            raise ModelError(f"{path} exists")
        parent = parent_of(path)
        if not self._may_create_in(user, parent):
            return DENIED
        self.nodes[path] = Node(owner=user, is_dir=True)
        self.nodes[parent].children.add(path)
        return OK

    def upload(self, user: str, path: str, content: bytes) -> Expect:
        if path + "/" in self.nodes:
            raise ModelError(f"{path}/ is a directory")
        node = self.nodes.get(path)
        parent = parent_of(path)
        if not (
            self._may_create_in(user, parent)
            or (node is not None and self.allowed(user, "w", path))
        ):
            return DENIED
        if node is None:
            node = self.nodes[path] = Node(owner=user, is_dir=False)
            self.nodes[parent].children.add(path)
        self.live_bytes += len(content) - node.size
        node.digest, node.size = digest_of(content), len(content)
        return OK

    def remove(self, user: str, path: str) -> Expect:
        node = self.nodes.get(path)
        if node is None or node.children:
            raise ModelError(f"cannot model removing {path}")
        if not self._owns(user, path):
            return DENIED
        del self.nodes[path]
        self.nodes[parent_of(path)].children.discard(path)
        self.live_bytes -= node.size
        return OK

    def move(self, user: str, src: str, dst: str) -> Expect:
        node = self.nodes.get(src)
        if node is None or node.is_dir or dst in self.nodes or dst + "/" in self.nodes:
            raise ModelError(f"cannot model moving {src} to {dst}")
        if not self._owns(user, src) or not self._may_create_in(user, parent_of(dst)):
            return DENIED
        del self.nodes[src]
        self.nodes[parent_of(src)].children.discard(src)
        self.nodes[dst] = node
        self.nodes[parent_of(dst)].children.add(dst)
        return OK

    def set_permission(self, user: str, path: str, group: str, perms: str) -> Expect:
        if not self._owns(user, path):
            return DENIED
        if perms and not is_default_group(group) and group not in self.group_owner:
            raise ModelError(f"no group {group}")
        grants = self.nodes[path].grants
        if perms:
            grants[group] = perms
        else:
            grants.pop(group, None)
        return OK

    def set_inherit(self, user: str, path: str, inherit: bool) -> Expect:
        if not self._owns(user, path):
            return DENIED
        self.nodes[path].inherit = inherit
        return OK

    def add_user(self, requester: str, user: str, group: str) -> Expect:
        if group not in self.group_owner:
            # First use creates the group; the creator owns and joins it.
            self.group_owner[group] = requester
            self.memberships.setdefault(requester, set()).add(group)
        if not self._owns_group(requester, group):
            return DENIED
        self.memberships.setdefault(user, set()).add(group)
        return OK

    def remove_user(self, requester: str, user: str, group: str) -> Expect:
        if not self._owns_group(requester, group):
            return DENIED
        if group not in self.memberships.get(user, set()):
            raise ModelError(f"{user} is not in {group}")
        self.memberships[user].discard(group)
        return OK


def check(expect: Expect, outcome: tuple[str, Any]) -> bool:
    """Does what the client saw (``outcome``) match what the model expects?

    ``outcome`` is ``("denied", None)``, ``("error", text)`` or
    ``("ok", value)`` with the client method's return value.
    """
    status, value = outcome
    if expect.kind == "denied":
        return status == "denied"
    if status != "ok":
        return False
    if expect.kind == "ok":
        return True
    if expect.kind == "bytes":
        digest, size = expect.value
        return len(value) == size and digest_of(value) == digest
    if expect.kind == "listing":
        return frozenset(value) == expect.value
    if expect.kind == "stat":
        return (value.is_dir, value.size, value.inherit) == expect.value
    if expect.kind == "acl":
        owners, entries, inherit = expect.value
        return (tuple(value.owners), frozenset(value.entries), value.inherit) == (
            owners,
            entries,
            inherit,
        )
    raise ValueError(f"unknown expectation {expect.kind}")
