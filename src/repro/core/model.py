"""The access-control model of Table I.

* ``U`` — users, identified by the ``uid`` from their client certificate.
* ``G`` — groups; every user ``u`` implicitly has a default group
  ``g_u`` containing only ``u`` (:func:`default_group`).
* ``P`` — permissions: read, write, or an explicit deny.
* Relations: ``rG`` (membership), ``rP`` (permissions), ``rI``
  (inheritance), ``rFO`` (file ownership), ``rGO`` (group ownership).

The relations themselves are persisted in encrypted ACL / member-list /
group-list files (:mod:`repro.core.acl`); this module defines the value
types and the naming conventions.
"""

from __future__ import annotations

import enum

from repro.errors import RequestError

_DEFAULT_GROUP_PREFIX = "u:"


class Permission(enum.Enum):
    """An individual permission p ∈ {pr, pw, pdeny}.

    ``DENY`` beats any grant from other groups: the paper's model lets a
    file owner explicitly cut a group out even when another membership
    would grant access.
    """

    READ = "r"
    WRITE = "w"
    DENY = "deny"


def default_group(user_id: str) -> str:
    """The default group ``g_u`` of user ``u`` — a group containing only u.

    Default groups let every user-level operation reuse the group
    machinery ("permission requests also apply for individual users").
    """
    return _DEFAULT_GROUP_PREFIX + user_id


def is_default_group(group_id: str) -> bool:
    return group_id.startswith(_DEFAULT_GROUP_PREFIX)


def default_group_member(group_id: str) -> str:
    """The single member of a default group."""
    if not is_default_group(group_id):
        raise RequestError(f"{group_id!r} is not a default group")
    return group_id[len(_DEFAULT_GROUP_PREFIX) :]


def validate_group_id(group_id: str) -> None:
    """Regular (non-default) group ids must not collide with default ones."""
    if not group_id:
        raise RequestError("empty group id")
    if is_default_group(group_id):
        raise RequestError(
            f"group id {group_id!r} uses the reserved default-group prefix"
        )
    if "\x00" in group_id or "/" in group_id:
        raise RequestError(f"forbidden character in group id {group_id!r}")


def validate_user_id(user_id: str) -> None:
    if not user_id:
        raise RequestError("empty user id")
    if "\x00" in user_id or "/" in user_id:
        raise RequestError(f"forbidden character in user id {user_id!r}")
