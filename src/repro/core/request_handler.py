"""The request handler (paper Algo. 1 plus the remaining requests).

Parses each incoming request, checks its syntax, takes the user identity
from the client certificate (the TLS layer passes it in), and processes
the request with the internal operations of the access control and file
manager components.

Fidelity notes, matching Algo. 1 line by line:

* ``put_fD``/``put_fC`` append the new child's path to the parent
  directory file and record the uploader's **default group** as file
  owner;
* creating a file under the root requires no permission
  (``path2 == "/"``), exactly as in the pseudocode;
* overwriting an existing content file is allowed with write permission
  on either the file or its parent;
* ``add_u`` creates the group on first use, making the requesting user
  its first member and the user's default group its owner;
* authorization happens **before** any mutation, and a failed check
  yields an opaque DENIED.
"""

from __future__ import annotations

from repro.core.access_control import AccessControl
from repro.core.acl import AclFile
from repro.core.file_manager import ContentUpload, TrustedFileManager
from repro.core.locks import LockManager
from repro.core.model import (
    Permission,
    default_group,
    validate_group_id,
    validate_user_id,
)
from repro.core.requests import (
    AclInfo,
    Op,
    QuotaInfo,
    Request,
    Response,
    StatInfo,
    perms_from_wire,
    perms_to_wire,
)
from repro.errors import (
    AccessDenied,
    CounterError,
    EnclaveCrashed,
    FaultError,
    FileSystemError,
    PathError,
    QuotaExceeded,
    ReproError,
    RequestError,
    RollbackDetected,
    ServiceUnavailableError,
)
from repro.fsmodel import DirectoryFile, is_dir_path, parent, validate_path
from repro.tls.channel import StreamingResponse

ROOT = "/"

#: Requests that mutate multiple untrusted keys and therefore run inside
#: one engine transaction (one write-ahead journal batch).  (PUT_FILE
#: streams; its batch opens in :meth:`UploadSink.finish`.)
_MUTATING_OPS = frozenset(
    {
        Op.PUT_DIR,
        Op.REMOVE,
        Op.MOVE,
        Op.SET_PERM,
        Op.SET_INHERIT,
        Op.ADD_FILE_OWNER,
        Op.RMV_FILE_OWNER,
        Op.ADD_USER,
        Op.RMV_USER,
        Op.ADD_GROUP_OWNER,
        Op.DELETE_GROUP,
    }
)


def response_for(exc: ReproError) -> Response:
    """The one failure -> response table, shared by every door.

    A request answers what the access-control model says or one of these
    typed failures: DENIED is opaque, a rollback names itself, RETRY and
    UNAVAILABLE tell a client whether backing off can help, and a failure
    outside the table is reported by type only — its message may quote
    enclave state.
    """
    if isinstance(exc, AccessDenied):
        return Response.denied()
    if isinstance(exc, RollbackDetected):
        return Response.error(f"integrity violation: {exc}")
    if isinstance(exc, ServiceUnavailableError):
        return Response.unavailable(str(exc))
    if isinstance(exc, CounterError):
        return Response.unavailable(f"freshness counter unreachable: {exc}")
    if isinstance(exc, FaultError):
        return Response.retryable(str(exc))
    if isinstance(exc, (RequestError, PathError, FileSystemError)):
        return Response.error(str(exc))
    return Response.error(f"internal error: {type(exc).__name__}")


def _validate_user_path(path: str) -> None:
    """Paths from users: well-formed, not the ACL namespace."""
    validate_path(path)
    if path.rstrip("/").endswith(".acl"):
        raise RequestError("the .acl suffix is reserved")


class RequestHandler:
    """Processes authenticated requests against one SeGShare state."""

    def __init__(
        self,
        manager: TrustedFileManager,
        access: AccessControl,
        locks: LockManager,
        quota_bytes: int | None = None,
    ) -> None:
        self._manager = manager
        self._access = access
        self._quota_bytes = quota_bytes
        #: Path-granular request locks (the enclave's lock table).
        self.locks = locks
        self.ensure_root()

    def ensure_root(self) -> None:
        """Create the root directory file on first start."""
        if not self._manager.exists(ROOT):
            with self._manager.transaction("ensure_root"):
                self._manager.write_dir(ROOT, DirectoryFile())

    # -- dispatch ------------------------------------------------------------------

    def handle(self, user_id: str, request: Request) -> "Response | StreamingResponse":
        """Process one non-streaming request; exceptions become responses."""
        try:
            request.validate()
            # Locks come first, the journal batch second: a request holds
            # its full lock set before reading any state it may mutate
            # (two-phase locking), and the batch commit point is therefore
            # inside the locked span.
            with self.locks.for_request(
                user_id, request, quota=self._quota_bytes is not None
            ):
                if request.op in _MUTATING_OPS:
                    with self._manager.transaction(request.op.name):
                        return self._dispatch(user_id, request)
                return self._dispatch(user_id, request)
        except EnclaveCrashed:
            # Not a request failure: the enclave itself is gone.  Restart
            # recovery (not a response) is the only way forward.
            raise
        except ReproError as exc:
            return response_for(exc)

    def _dispatch(self, user_id: str, request: Request) -> "Response | StreamingResponse":
        op = request.op
        args = request.args
        if op is Op.PUT_DIR:
            return self.put_dir(user_id, args[0])
        if op is Op.GET:
            return self.get(user_id, args[0])
        if op is Op.REMOVE:
            return self.remove(user_id, args[0])
        if op is Op.MOVE:
            return self.move(user_id, args[0], args[1])
        if op is Op.SET_PERM:
            return self.set_permission(user_id, args[0], args[1], args[2])
        if op is Op.SET_INHERIT:
            return self.set_inherit(user_id, args[0], args[1] == "1")
        if op is Op.ADD_FILE_OWNER:
            return self.add_file_owner(user_id, args[0], args[1])
        if op is Op.RMV_FILE_OWNER:
            return self.remove_file_owner(user_id, args[0], args[1])
        if op is Op.LIST_MEMBERS:
            return self.list_members(user_id, args[0])
        if op is Op.QUOTA:
            return self.quota(user_id)
        if op is Op.ADD_USER:
            return self.add_user(user_id, args[0], args[1])
        if op is Op.RMV_USER:
            return self.remove_user(user_id, args[0], args[1])
        if op is Op.ADD_GROUP_OWNER:
            return self.add_group_owner(user_id, args[0], args[1])
        if op is Op.DELETE_GROUP:
            return self.delete_group(user_id, args[0])
        if op is Op.MY_GROUPS:
            return self.my_groups(user_id)
        if op is Op.STAT:
            return self.stat(user_id, args[0])
        if op is Op.GET_ACL:
            return self.get_acl(user_id, args[0])
        if op is Op.PUT_FILE:
            raise RequestError("PUT_FILE must be sent as a streaming upload")
        raise RequestError(f"unhandled opcode {op.name}")

    # -- Algo. 1: put_fD -----------------------------------------------------------

    def put_dir(self, user_id: str, path: str) -> Response:
        _validate_user_path(path)
        if not is_dir_path(path) or path == ROOT:
            raise RequestError(f"{path!r} is not a valid directory path")
        if self._manager.exists(path):
            raise RequestError(f"{path!r} already exists")
        if self._manager.exists(path[:-1]):
            # A sibling content file of the same name would share this
            # directory's ACL path (Fig. 2 puts a directory's ACL next to
            # it, without the trailing slash).
            raise RequestError(f"a file named {path[:-1]!r} already exists")
        parent_path = parent(path)
        if not self._manager.exists(parent_path):
            raise RequestError(f"parent directory {parent_path!r} does not exist")
        if parent_path != ROOT and not self._access.auth_f(user_id, Permission.WRITE, parent_path):
            raise AccessDenied()

        acl = AclFile()
        acl.add_owner(default_group(user_id))
        parent_dir = self._manager.read_dir(parent_path)
        parent_dir.add(path)
        self._manager.write_dir(parent_path, parent_dir)
        self._manager.write_acl(path, acl)
        self._manager.write_dir(path, DirectoryFile())
        self._access.on_grant(path, default_group(user_id))
        return Response.ok("directory created")

    # -- Algo. 1: put_fC (streaming) -------------------------------------------------

    def authorize_put_file(self, user_id: str, path: str) -> None:
        """The put_fC guard condition, checked before any byte is accepted."""
        _validate_user_path(path)
        if is_dir_path(path):
            raise RequestError(f"{path!r} is a directory path, not a file path")
        if self._manager.exists(path + "/"):
            raise RequestError(f"a directory named {path + '/'!r} already exists")
        parent_path = parent(path)
        allowed = (
            parent_path == ROOT
            or (
                self._manager.exists(parent_path)
                and self._access.auth_f(user_id, Permission.WRITE, parent_path)
            )
            or (
                self._manager.exists(path)
                and self._access.auth_f(user_id, Permission.WRITE, path)
            )
        )
        if parent_path != ROOT and not self._manager.exists(parent_path):
            raise RequestError(f"parent directory {parent_path!r} does not exist")
        if not allowed:
            raise AccessDenied()

    def open_upload(self, user_id: str, path: str) -> "UploadSink":
        """Begin a streaming put_fC; authorization happens now."""
        self.authorize_put_file(user_id, path)
        return UploadSink(self, user_id, path)

    def put_file(self, user_id: str, path: str, content: bytes) -> Response:
        """Non-streaming convenience used by tests and the WebDAV adapter."""
        sink = None
        try:
            sink = self.open_upload(user_id, path)
            sink.write(content)
        except EnclaveCrashed:
            raise
        except ReproError as exc:
            if sink is not None:
                sink.abort()
            return response_for(exc)
        return Response.deserialize(sink.finish())

    def _commit_upload(self, user_id: str, path: str, upload: ContentUpload) -> Response:
        is_new = not self._manager.exists(path)
        if is_new:
            acl = AclFile()
            acl.add_owner(default_group(user_id))
        else:
            acl = self._manager.read_acl(path)

        if self._quota_bytes is not None:
            # The old version's bytes are refunded to whoever uploaded it;
            # the new version counts against this uploader.
            used = self._manager.read_quota(user_id)
            refund = acl.accounted_size if acl.accounted_user == user_id else 0
            if used - refund + upload._size > self._quota_bytes:
                # Raised, not returned: the refusal must ABORT the
                # PUT_FILE transaction (rolling back the sealed request
                # stamp with it) so "stamp committed" keeps implying
                # "request answered OK" for cluster failover;
                # UploadSink.finish maps it to the error response.
                raise QuotaExceeded(
                    f"quota exceeded: {used - refund + upload._size} "
                    f"> {self._quota_bytes} bytes"
                )
            if acl.accounted_user and acl.accounted_user != user_id:
                other_used = self._manager.read_quota(acl.accounted_user)
                self._manager.write_quota(
                    acl.accounted_user, max(0, other_used - acl.accounted_size)
                )
            self._manager.write_quota(user_id, used - refund + upload._size)
            acl.accounted_user = user_id
            acl.accounted_size = upload._size

        if is_new:
            parent_path = parent(path)
            parent_dir = self._manager.read_dir(parent_path)
            parent_dir.add(path)
            self._manager.write_dir(parent_path, parent_dir)
        self._manager.write_acl(path, acl)
        upload.finish()
        if is_new:
            self._access.on_grant(path, default_group(user_id))
        return Response.ok("file stored")

    # -- Algo. 1: get -----------------------------------------------------------------

    def get(self, user_id: str, path: str) -> "Response | StreamingResponse":
        _validate_user_path(path)
        if path != ROOT and not self._access.auth_f(user_id, Permission.READ, path):
            raise AccessDenied()
        if is_dir_path(path):
            directory = self._manager.read_dir(path)
            return Response.ok("listing", listing=tuple(directory.children))
        size, chunks = self._manager.iter_content(path)
        return StreamingResponse(
            header=Response.ok("file content").serialize(), chunks=chunks, body_len=size
        )

    # -- remove / move ------------------------------------------------------------------

    def remove(self, user_id: str, path: str) -> Response:
        _validate_user_path(path)
        if path == ROOT:
            raise RequestError("cannot remove the root directory")
        if not self._manager.exists(path):
            raise RequestError(f"no file at {path!r}")
        if not self._access.auth_f(user_id, None, path):
            raise AccessDenied()
        removed = self._remove_tree(path)
        parent_path = parent(path)
        parent_dir = self._manager.read_dir(parent_path)
        parent_dir.remove(path)
        self._manager.write_dir(parent_path, parent_dir)
        return Response.ok(f"removed {removed} file(s)")

    def _remove_tree(self, path: str) -> int:
        """Delete a file or directory subtree with its ACLs; returns file count."""
        count = 1
        if is_dir_path(path):
            directory = self._manager.read_dir(path)
            for child in directory.children:
                count += self._remove_tree(child)
        self._manager.delete_content(path)
        if self._manager.acl_exists(path):
            if self._quota_bytes is not None:
                acl = self._manager.read_acl(path)
                if acl.accounted_user:
                    used = self._manager.read_quota(acl.accounted_user)
                    self._manager.write_quota(
                        acl.accounted_user, max(0, used - acl.accounted_size)
                    )
            self._manager.delete_acl(path)
            self._access.on_file_removed(path)
        return count

    def move(self, user_id: str, src: str, dst: str) -> Response:
        _validate_user_path(src)
        _validate_user_path(dst)
        if src == ROOT or dst == ROOT:
            raise RequestError("cannot move the root directory")
        if is_dir_path(src) != is_dir_path(dst):
            raise RequestError("source and destination must both be files or directories")
        if not self._manager.exists(src):
            raise RequestError(f"no file at {src!r}")
        if self._manager.exists(dst):
            raise RequestError(f"{dst!r} already exists")
        other_kind = dst[:-1] if is_dir_path(dst) else dst + "/"
        if self._manager.exists(other_kind):
            raise RequestError(f"{other_kind!r} already exists")
        dst_parent = parent(dst)
        if not self._manager.exists(dst_parent):
            raise RequestError(f"destination directory {dst_parent!r} does not exist")
        if not self._access.auth_f(user_id, None, src):
            raise AccessDenied()
        if dst_parent != ROOT and not self._access.auth_f(user_id, Permission.WRITE, dst_parent):
            raise AccessDenied()

        # Ordering matters for the rollback guard: the destination must be
        # listed before its objects appear (a listed-but-missing entry is
        # tolerated; an existing-but-unlisted one is indistinguishable from
        # tampering), and the source listing is dropped only after its
        # objects are gone.
        dst_dir = self._manager.read_dir(dst_parent)
        dst_dir.add(dst)
        self._manager.write_dir(dst_parent, dst_dir)
        moved = self._move_tree(src, dst)
        src_parent = parent(src)
        src_dir = self._manager.read_dir(src_parent)
        src_dir.remove(src)
        self._manager.write_dir(src_parent, src_dir)
        return Response.ok(f"moved {moved} file(s)")

    def _move_tree(self, src: str, dst: str) -> int:
        """Relocate a subtree: per-file re-encryption under the new path key.

        A file moves by re-pointing — only its small pointer record is
        re-encrypted, never the payload.
        """
        count = 1
        acl = self._manager.find_acl(src)
        if acl is not None:
            self._manager.write_acl(dst, acl)
        if is_dir_path(src):
            directory = self._manager.read_dir(src)
            # Create the destination directory first so the guard has an
            # inner node to hang the moved children on.
            self._manager.write_dir(dst, DirectoryFile())
            new_dir = DirectoryFile()
            for child in directory.children:
                new_child = dst + child[len(src) :]
                new_dir.add(new_child)
                self._manager.write_dir(dst, new_dir.copy())
                count += self._move_tree(child, new_child)
            self._manager.delete_content(src)
        else:
            self._manager.move_content(src, dst)
        if acl is not None:
            self._manager.delete_acl(src)
            self._access.on_file_moved(src, dst)
        return count

    # -- Algo. 1: set_p and the ownership requests -----------------------------------------

    def set_permission(self, user_id: str, path: str, group_id: str, perms_wire: str) -> Response:
        _validate_user_path(path)
        perms = perms_from_wire(perms_wire)
        if not self._access.auth_f(user_id, None, path):
            raise AccessDenied()
        if perms and not self._access.exists_g(group_id):
            raise RequestError(f"no group {group_id!r}")
        acl = self._manager.read_acl(path)
        had_entry = bool(acl.lookup(group_id)) or acl.is_owner(group_id)
        acl.set_permission(group_id, perms)
        self._manager.write_acl(path, acl)
        if perms:
            self._access.on_grant(path, group_id)
        elif had_entry and not acl.is_owner(group_id):
            self._access.on_grant_removed(path, group_id)
        return Response.ok("permission updated")

    def set_inherit(self, user_id: str, path: str, inherit: bool) -> Response:
        """The Section V-B request: add/remove ``path`` to/from rI."""
        _validate_user_path(path)
        if not self._access.auth_f(user_id, None, path):
            raise AccessDenied()
        acl = self._manager.read_acl(path)
        acl.inherit = inherit
        self._manager.write_acl(path, acl)
        return Response.ok("inherit flag updated")

    def add_file_owner(self, user_id: str, path: str, group_id: str) -> Response:
        _validate_user_path(path)
        if not self._access.auth_f(user_id, None, path):
            raise AccessDenied()
        if not self._access.exists_g(group_id):
            raise RequestError(f"no group {group_id!r}")
        acl = self._manager.read_acl(path)
        acl.add_owner(group_id)
        self._manager.write_acl(path, acl)
        self._access.on_grant(path, group_id)
        return Response.ok("owner added")

    def remove_file_owner(self, user_id: str, path: str, group_id: str) -> Response:
        """Drop an owner group; the last owner cannot be removed."""
        _validate_user_path(path)
        if not self._access.auth_f(user_id, None, path):
            raise AccessDenied()
        acl = self._manager.read_acl(path)
        acl.remove_owner(group_id)
        self._manager.write_acl(path, acl)
        if not acl.lookup(group_id):
            self._access.on_grant_removed(path, group_id)
        return Response.ok("owner removed")

    # -- Algo. 1: add_u / rmv_u and group administration -----------------------------------

    def add_user(self, requester_id: str, user_id: str, group_id: str) -> Response:
        validate_user_id(user_id)
        validate_group_id(group_id)
        if not self._access.exists_g(group_id):
            self._access.create_group(requester_id, group_id)
        if not self._access.auth_g(requester_id, group_id):
            raise AccessDenied()
        self._access.add_member(user_id, group_id)
        return Response.ok("member added")

    def remove_user(self, requester_id: str, user_id: str, group_id: str) -> Response:
        validate_user_id(user_id)
        validate_group_id(group_id)
        if not self._access.auth_g(requester_id, group_id):
            raise AccessDenied()
        self._access.remove_member(user_id, group_id)
        return Response.ok("member removed")

    def add_group_owner(self, requester_id: str, owner_group: str, group_id: str) -> Response:
        validate_group_id(group_id)
        if not self._access.auth_g(requester_id, group_id):
            raise AccessDenied()
        self._access.add_group_owner(group_id, owner_group)
        return Response.ok("group owner added")

    def delete_group(self, requester_id: str, group_id: str) -> Response:
        validate_group_id(group_id)
        if not self._access.auth_g(requester_id, group_id):
            raise AccessDenied()
        touched = self._access.delete_group(group_id)
        return Response.ok(f"group deleted; {touched} member list(s) updated")

    # -- introspection ---------------------------------------------------------------------

    def my_groups(self, user_id: str) -> Response:
        return Response.ok("groups", listing=tuple(sorted(self._access.user_groups(user_id))))

    def stat(self, user_id: str, path: str) -> Response:
        _validate_user_path(path)
        is_owner = self._access.auth_f(user_id, None, path)
        if path != ROOT and not (
            is_owner or self._access.auth_f(user_id, Permission.READ, path)
        ):
            raise AccessDenied()
        if is_dir := is_dir_path(path):
            size = len(self._manager.read_dir(path))
            acl = self._manager.find_acl(path) or AclFile()
        else:
            acl = self._manager.read_acl(path)
            size = self._manager.content_size(path)
        info = StatInfo(is_dir=is_dir, size=size, owners=tuple(acl.owners) if is_owner else (), inherit=acl.inherit)
        return Response.ok("stat", payload=info.serialize())

    def quota(self, user_id: str) -> Response:
        """This user's storage accounting (limit 0 = unlimited)."""
        info = QuotaInfo(
            used=self._manager.read_quota(user_id),
            limit=self._quota_bytes or 0,
        )
        return Response.ok("quota", payload=info.serialize())

    def list_members(self, user_id: str, group_id: str) -> Response:
        """Group owners may enumerate members.

        Membership is stored per *user* (the property behind Fig. 4's flat
        curves), so this scans the user registry — an O(|U|) owner-only
        administrative query, not a hot-path operation.
        """
        validate_group_id(group_id)
        if not self._access.auth_g(user_id, group_id):
            raise AccessDenied()
        members = tuple(
            candidate
            for candidate in self._access.known_users()
            if group_id in self._access.user_groups(candidate)
        )
        return Response.ok("members", listing=members)

    def get_acl(self, user_id: str, path: str) -> Response:
        _validate_user_path(path)
        if not self._access.auth_f(user_id, None, path):
            raise AccessDenied()
        acl = self._manager.read_acl(path)
        entries = tuple(
            (group, perms_to_wire(acl.lookup(group))) for group in acl.groups_with_entries()
        )
        info = AclInfo(owners=tuple(acl.owners), entries=entries, inherit=acl.inherit)
        return Response.ok("acl", payload=info.serialize())


class UploadSink:
    """Bridges the TLS streaming upload into the trusted file manager."""

    def __init__(self, handler: RequestHandler, user_id: str, path: str) -> None:
        self._handler = handler
        self._user_id = user_id
        self._path = path
        self._upload = handler._manager.open_content_upload(path)
        self._aborted = False

    def write(self, chunk: bytes) -> None:
        self._upload.write(chunk)

    def finish(self) -> bytes:
        try:
            with self._handler.locks.for_upload(
                self._user_id,
                self._path,
                quota=self._handler._quota_bytes is not None,
                exists=self._handler._manager.exists(self._path),
            ):
                with self._handler._manager.transaction("PUT_FILE"):
                    response = self._handler._commit_upload(
                        self._user_id, self._path, self._upload
                    )
        except EnclaveCrashed:
            raise
        except ReproError as exc:
            self._upload.abort()
            response = response_for(exc)
        return response.serialize()

    def abort(self) -> None:
        if not self._aborted:
            self._aborted = True
            self._upload.abort()
