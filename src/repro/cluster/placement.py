"""Group-affinity placement over the replica set (rendezvous hashing).

The cluster routes each request to a replica by *affinity* — requests
touching the same top-level directory, the same group, or the same
user land on the same replica, which keeps that replica's working set
hot and makes the shared backend's serialization points (journal
commit, guard anchor) mostly replica-local in practice.  Placement is
host-side machinery exactly like :mod:`repro.store.sharded`: it must
not depend on any enclave secret, because the untrusted front door
re-derives it per request — so affinity keys are scored by HMAC-SHA256
under a fixed, public placement key (the HMAC only flattens
adversarial key distributions; it hides nothing).

Rendezvous (highest-random-weight) hashing instead of modulo: when a
replica joins or is evicted, only the affinity keys owned by the
changed member move — the membership protocol rebalances a crashed
replica's groups without reshuffling everyone else's.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, List

from repro.core.requests import Op, Request

#: Fixed, public placement key.  Not a secret — it decorrelates
#: placement from attacker-chosen affinity strings, nothing more.
_PLACEMENT_KEY = b"segshare-cluster-placement-v1"

#: Memoized owners kept at most; past it the memo starts over.
OWNER_MEMO = 4096

#: Ops whose first argument names the group the request is about.
_GROUP_ARG0_OPS = frozenset({Op.LIST_MEMBERS, Op.DELETE_GROUP})
#: Ops whose second argument names the group.
_GROUP_ARG1_OPS = frozenset({Op.ADD_USER, Op.RMV_USER, Op.ADD_GROUP_OWNER})
#: Ops scoped to the requesting user, with no path or group argument.
_USER_SCOPED_OPS = frozenset({Op.MY_GROUPS, Op.QUOTA})


def request_affinity(user_id: str, request: Request) -> str:
    """The affinity string one request routes by.

    Path requests route by the path's top-level segment (MOVE by its
    source), group administration by the group name, and user-scoped
    introspection by the requesting user.  The mapping is deliberately
    coarse: affinity is a locality hint, never a correctness property —
    any replica can serve any request against the shared repository.
    """
    if request.op in _USER_SCOPED_OPS:
        return f"user:{user_id}"
    if request.op in _GROUP_ARG0_OPS:
        return f"group:{request.args[0]}"
    if request.op in _GROUP_ARG1_OPS:
        return f"group:{request.args[1]}"
    path = request.args[0] if request.args else "/"
    return path_affinity(path)


def path_affinity(path: str) -> str:
    """Affinity of a filesystem path: its top-level directory segment."""
    segments = path.strip("/").split("/")
    return f"path:{segments[0]}" if segments and segments[0] else "path:/"


def _score(member: str, affinity: str) -> int:
    digest = hmac.new(
        _PLACEMENT_KEY,
        member.encode("utf-8") + b"\x00" + affinity.encode("utf-8"),
        hashlib.sha256,
    ).digest()
    return int.from_bytes(digest[:8], "big")


class PlacementRing:
    """The live member set with rendezvous-hash ownership.

    ``owner(affinity)`` is deterministic in the member set alone, so
    every front door (and every test witness) computes identical
    routing; adding or removing one member moves only that member's
    share of the affinity space.
    """

    def __init__(self, members: Iterable[str] = ()) -> None:
        self._members: List[str] = []
        #: affinity -> owner under the current member set; add/remove drop it.
        self._owners: dict[str, str] = {}
        for name in members:
            self.add(name)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def add(self, name: str) -> bool:
        """Admit ``name``; returns False if it was already a member."""
        if name in self._members:
            return False
        self._members.append(name)
        self._owners.clear()
        return True

    def remove(self, name: str) -> bool:
        """Evict ``name``; its affinity keys fall to the surviving members."""
        if name not in self._members:
            return False
        self._members.remove(name)
        self._owners.clear()
        return True

    def owner(self, affinity: str) -> str:
        """The member owning ``affinity`` — highest rendezvous score wins,
        scored once per affinity until the member set changes."""
        owner = self._owners.get(affinity)
        if owner is None:
            if not self._members:
                raise LookupError("placement ring has no members")
            if len(self._owners) >= OWNER_MEMO:
                self._owners.clear()
            owner = self._owners[affinity] = max(self._members, key=lambda member: _score(member, affinity))
        return owner
