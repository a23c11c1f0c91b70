"""Request and response wire formats of the SeGShare protocol.

Every external request of Algo. 1 — plus the ones the paper calls
straightforward (remove, move, ownership and group-ownership updates,
group deletion) and the Section V-B inherit request — has an opcode.
Requests travel as the payload of a TLS application message; file
uploads use the streaming message kind with a :data:`Op.PUT_FILE` header
and the content in fixed-size chunks.

Responses carry a status (OK / DENIED / ERROR), an optional message, and
an optional payload.  DENIED deliberately carries no explanation: the
enclave does not reveal *which* check failed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import RequestError
from repro.util.serialization import Reader, Writer


class Op(enum.IntEnum):
    """Request opcodes."""

    PUT_DIR = 1
    PUT_FILE = 2  # streaming header; content follows in chunks
    GET = 3  # file content or directory listing
    REMOVE = 4
    MOVE = 5
    SET_PERM = 6
    SET_INHERIT = 7
    ADD_FILE_OWNER = 8
    ADD_USER = 9
    RMV_USER = 10
    ADD_GROUP_OWNER = 11
    DELETE_GROUP = 12
    MY_GROUPS = 13
    STAT = 14
    GET_ACL = 15
    RMV_FILE_OWNER = 16
    LIST_MEMBERS = 17
    QUOTA = 18


class Status(enum.IntEnum):
    OK = 0
    DENIED = 1
    ERROR = 2
    #: Transient server-side fault; the request did not take effect and the
    #: client should retry with backoff.
    RETRY = 3
    #: The service is degraded to read-only (e.g. the counter quorum is
    #: unreachable); retrying immediately will not help.
    UNAVAILABLE = 4


_OPS = {int(op): op for op in Op}
_STATUSES = {int(status): status for status in Status}


@dataclass(frozen=True)
class Request:
    """A generic request: opcode plus positional string arguments.

    ``args`` meaning per opcode:

    =================  =========================================
    PUT_DIR            [path]
    PUT_FILE           [path]                     (content streamed)
    GET                [path]
    REMOVE             [path]
    MOVE               [src_path, dst_path]
    SET_PERM           [path, group, perms]       perms ⊆ "rw" or "deny" or ""
    SET_INHERIT        [path, "1"|"0"]
    ADD_FILE_OWNER     [path, group]
    RMV_FILE_OWNER     [path, group]
    LIST_MEMBERS       [group]                    (group owners only)
    QUOTA              []                         (own usage/limit)
    ADD_USER           [user, group]
    RMV_USER           [user, group]
    ADD_GROUP_OWNER    [owner_group, group]
    DELETE_GROUP       [group]
    MY_GROUPS          []
    STAT               [path]
    GET_ACL            [path]
    =================  =========================================
    """

    op: Op
    args: tuple[str, ...] = ()

    _ARITY = {
        Op.PUT_DIR: 1,
        Op.PUT_FILE: 1,
        Op.GET: 1,
        Op.REMOVE: 1,
        Op.MOVE: 2,
        Op.SET_PERM: 3,
        Op.SET_INHERIT: 2,
        Op.ADD_FILE_OWNER: 2,
        Op.ADD_USER: 2,
        Op.RMV_USER: 2,
        Op.ADD_GROUP_OWNER: 2,
        Op.DELETE_GROUP: 1,
        Op.MY_GROUPS: 0,
        Op.STAT: 1,
        Op.GET_ACL: 1,
        Op.RMV_FILE_OWNER: 2,
        Op.LIST_MEMBERS: 1,
        Op.QUOTA: 0,
    }

    def serialize(self) -> bytes:
        return Writer().u8(int(self.op)).str_list(self.args).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "Request":
        r = Reader(data)
        op = _OPS.get(r.u8())
        if op is None:
            raise RequestError(f"unknown opcode: {data[0]}")
        args = tuple(r.str_list())
        r.expect_end()
        request = cls(op=op, args=args)
        request.validate()
        return request

    def validate(self) -> None:
        expected = self._ARITY[self.op]
        if len(self.args) != expected:
            raise RequestError(
                f"{self.op.name} takes {expected} argument(s), got {len(self.args)}"
            )


@dataclass(frozen=True)
class Response:
    """A response: status, human-readable message, payload, and string list."""

    status: Status
    message: str = ""
    payload: bytes = b""
    listing: tuple[str, ...] = field(default=())

    def serialize(self) -> bytes:
        return (
            Writer()
            .u8(int(self.status))
            .str(self.message)
            .bytes(self.payload)
            .str_list(self.listing)
            .take()
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "Response":
        r = Reader(data)
        status = _STATUSES.get(r.u8())
        if status is None:
            raise RequestError(f"unknown status: {data[0]}")
        message = r.str()
        payload = r.bytes()
        listing = tuple(r.str_list())
        r.expect_end()
        return cls(status=status, message=message, payload=payload, listing=listing)

    @classmethod
    def ok(cls, message: str = "", payload: bytes = b"", listing: tuple[str, ...] = ()) -> "Response":
        return cls(status=Status.OK, message=message, payload=payload, listing=listing)

    @classmethod
    def denied(cls) -> "Response":
        return cls(status=Status.DENIED, message="denied")

    @classmethod
    def error(cls, message: str) -> "Response":
        return cls(status=Status.ERROR, message=message)

    @classmethod
    def retryable(cls, message: str) -> "Response":
        """A transient fault: the mutation was rolled back; retry is safe."""
        return cls(status=Status.RETRY, message=message)

    @classmethod
    def unavailable(cls, message: str) -> "Response":
        """The service is degraded (read-only); writes are refused."""
        return cls(status=Status.UNAVAILABLE, message=message)


@dataclass(frozen=True)
class StatInfo:
    """Payload of a STAT response."""

    is_dir: bool
    size: int
    owners: tuple[str, ...]
    inherit: bool

    def serialize(self) -> bytes:
        return (
            Writer()
            .bool(self.is_dir)
            .u64(self.size)
            .str_list(self.owners)
            .bool(self.inherit)
            .take()
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "StatInfo":
        r = Reader(data)
        info = cls(
            is_dir=r.bool(),
            size=r.u64(),
            owners=tuple(r.str_list()),
            inherit=r.bool(),
        )
        r.expect_end()
        return info


@dataclass(frozen=True)
class AclInfo:
    """Payload of a GET_ACL response (owners only may request it)."""

    owners: tuple[str, ...]
    entries: tuple[tuple[str, str], ...]  # (group, perms as "r"/"w"/"rw"/"deny")
    inherit: bool

    def serialize(self) -> bytes:
        w = Writer().str_list(self.owners).u32(len(self.entries))
        for group, perms in self.entries:
            w.str(group)
            w.str(perms)
        w.bool(self.inherit)
        return w.take()

    @classmethod
    def deserialize(cls, data: bytes) -> "AclInfo":
        r = Reader(data)
        owners = tuple(r.str_list())
        entries = []
        for _ in range(r.u32()):
            group = r.str()
            entries.append((group, r.str()))
        inherit = r.bool()
        r.expect_end()
        return cls(owners=owners, entries=tuple(entries), inherit=inherit)


@dataclass(frozen=True)
class QuotaInfo:
    """Payload of a QUOTA response.  ``limit == 0`` means unlimited."""

    used: int
    limit: int

    def serialize(self) -> bytes:
        return Writer().u64(self.used).u64(self.limit).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "QuotaInfo":
        r = Reader(data)
        info = cls(used=r.u64(), limit=r.u64())
        r.expect_end()
        return info


def perms_to_wire(perms: frozenset) -> str:
    """Encode a permission set as its wire string."""
    from repro.core.model import Permission

    if Permission.DENY in perms:
        return "deny"
    result = ""
    if Permission.READ in perms:
        result += "r"
    if Permission.WRITE in perms:
        result += "w"
    return result


def perms_from_wire(text: str) -> frozenset:
    """Parse a permission wire string ("", "r", "w", "rw", "deny")."""
    from repro.core.model import Permission

    if text == "deny":
        return frozenset({Permission.DENY})
    if text == "":
        return frozenset()
    perms = set()
    for ch in text:
        if ch == "r":
            perms.add(Permission.READ)
        elif ch == "w":
            perms.add(Permission.WRITE)
        else:
            raise RequestError(f"bad permission string {text!r}")
    return frozenset(perms)
