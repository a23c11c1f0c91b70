"""The user application (paper Fig. 1, client side).

A thin, typed API over the secure channel: every method builds a
:class:`repro.core.requests.Request`, sends it through the TLS client,
and interprets the :class:`repro.core.requests.Response`.  DENIED maps to
:class:`repro.errors.AccessDenied`, ERROR to
:class:`repro.errors.RequestError` — callers deal in exceptions, not
status codes.

The client stores nothing beyond its certificate and private key
(objective P1), held by the underlying :class:`repro.tls.TlsClient`.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.requests import (
    AclInfo,
    Op,
    QuotaInfo,
    Request,
    Response,
    StatInfo,
    Status,
)
from repro.errors import (
    AccessDenied,
    FaultError,
    RequestError,
    RetryPolicy,
    ServiceUnavailableError,
)
from repro.tls.channel import TlsClient


class SeGShareClient:
    """A connected, authenticated SeGShare user.

    With a :class:`repro.errors.RetryPolicy`, requests answered with
    :data:`Status.RETRY` (a transient server-side fault that was rolled
    back) are re-issued with capped exponential backoff; the delays are
    charged to the channel's simulated clock, and the jitter draws from a
    client-private seeded RNG so runs stay reproducible.  RETRY responses
    that outlive the policy raise :class:`repro.errors.FaultError`;
    :data:`Status.UNAVAILABLE` (the server degraded to read-only) raises
    :class:`repro.errors.ServiceUnavailableError` immediately — backoff
    cannot help there.
    """

    def __init__(
        self,
        tls: TlsClient,
        retry: RetryPolicy | None = None,
        retry_seed: int = 0,
    ) -> None:
        self._tls = tls
        self._retry = retry
        self._retry_rng = random.Random(retry_seed)

    # -- plumbing ---------------------------------------------------------------

    @staticmethod
    def _check(response: Response) -> Response:
        if response.status is Status.DENIED:
            raise AccessDenied("the server denied the request")
        if response.status is Status.ERROR:
            raise RequestError(response.message)
        if response.status is Status.RETRY:
            raise FaultError(response.message or "transient server fault")
        if response.status is Status.UNAVAILABLE:
            raise ServiceUnavailableError(
                response.message or "service degraded to read-only"
            )
        return response

    def _should_retry(self, response: Response, attempt: int) -> bool:
        if response.status is not Status.RETRY or self._retry is None:
            return False
        if attempt >= self._retry.attempts:
            return False
        delay = self._retry.delay(attempt, self._retry_rng)
        self._tls.clock.charge(delay, account="client-backoff")
        return True

    def _call(self, op: Op, *args: str) -> Response:
        payload = Request(op=op, args=args).serialize()
        attempt = 1
        while True:
            header, body = self._tls.request_full(payload)
            response = Response.deserialize(header)
            if self._should_retry(response, attempt):
                attempt += 1
                continue
            response = self._check(response)
            if body:
                return Response(
                    status=response.status, message=response.message, payload=body
                )
            return response

    # -- files and directories -------------------------------------------------------

    def mkdir(self, path: str) -> None:
        """Create a directory (``path`` must end with ``/``)."""
        self._call(Op.PUT_DIR, path)

    def upload(self, path: str, content: bytes | Iterator[bytes]) -> None:
        """Create or update a content file, streamed in fixed-size chunks.

        Only whole-``bytes`` uploads are retried on transient faults: a
        generator is consumed by the first attempt and cannot be replayed.
        """
        header = Request(op=Op.PUT_FILE, args=(path,)).serialize()
        attempt = 1
        while True:
            reply, _ = self._tls.upload_full(header, content)
            response = Response.deserialize(reply)
            if isinstance(content, bytes) and self._should_retry(response, attempt):
                attempt += 1
                continue
            self._check(response)
            return

    def download(self, path: str) -> bytes:
        """Fetch a content file."""
        return self._call(Op.GET, path).payload

    def listdir(self, path: str) -> list[str]:
        """Child paths of a directory."""
        return list(self._call(Op.GET, path).listing)

    def remove(self, path: str) -> None:
        """Delete a file or a directory subtree (owner only)."""
        self._call(Op.REMOVE, path)

    def move(self, src: str, dst: str) -> None:
        """Move/rename a file or directory subtree."""
        self._call(Op.MOVE, src, dst)

    def stat(self, path: str) -> StatInfo:
        return StatInfo.deserialize(self._call(Op.STAT, path).payload)

    def exists(self, path: str) -> bool:
        """Convenience wrapper: stat without raising for missing files."""
        try:
            self.stat(path)
            return True
        except (RequestError, AccessDenied):
            return False

    # -- permissions ---------------------------------------------------------------------

    def set_permission(self, path: str, group: str, perms: str) -> None:
        """Set group ``group``'s permission on ``path``.

        ``perms``: ``"r"``, ``"w"``, ``"rw"``, ``"deny"``, or ``""`` to
        remove the entry.  Use :func:`repro.core.model.default_group` to
        address an individual user.
        """
        self._call(Op.SET_PERM, path, group, perms)

    def set_inherit(self, path: str, inherit: bool) -> None:
        """Toggle permission inheritance from the parent directory (rI)."""
        self._call(Op.SET_INHERIT, path, "1" if inherit else "0")

    def add_owner(self, path: str, group: str) -> None:
        """Extend file ownership (rFO) to another group."""
        self._call(Op.ADD_FILE_OWNER, path, group)

    def remove_owner(self, path: str, group: str) -> None:
        """Drop an owner group (the last owner cannot be removed)."""
        self._call(Op.RMV_FILE_OWNER, path, group)

    def get_acl(self, path: str) -> AclInfo:
        """Full ACL of a file — owners only."""
        return AclInfo.deserialize(self._call(Op.GET_ACL, path).payload)

    # -- groups ---------------------------------------------------------------------------

    def add_user(self, user_id: str, group: str) -> None:
        """Add ``user_id`` to ``group``, creating the group on first use."""
        self._call(Op.ADD_USER, user_id, group)

    def remove_user(self, user_id: str, group: str) -> None:
        """Remove ``user_id`` from ``group`` — immediate revocation."""
        self._call(Op.RMV_USER, user_id, group)

    def add_group_owner(self, owner_group: str, group: str) -> None:
        """Extend group ownership (rGO): ``owner_group`` now administers ``group``."""
        self._call(Op.ADD_GROUP_OWNER, owner_group, group)

    def delete_group(self, group: str) -> None:
        self._call(Op.DELETE_GROUP, group)

    def my_groups(self) -> list[str]:
        """This user's group memberships (including the default group)."""
        return list(self._call(Op.MY_GROUPS).listing)

    def list_members(self, group: str) -> list[str]:
        """Members of a group — group owners only (O(|U|) admin query)."""
        return list(self._call(Op.LIST_MEMBERS, group).listing)

    def quota(self) -> QuotaInfo:
        """This user's storage accounting; ``limit == 0`` means unlimited."""
        return QuotaInfo.deserialize(self._call(Op.QUOTA).payload)

    def close(self) -> None:
        self._tls.close()
