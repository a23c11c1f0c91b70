"""Mapping WebDAV verbs onto the SeGShare request handler.

============  ==========================================================
Verb          SeGShare operation
============  ==========================================================
PUT           put_fC (create/update a content file)
GET           get (file content, or listing when the path is a directory)
MKCOL         put_fD (create a directory)
DELETE        remove
MOVE          move (``Destination`` header)
PROPFIND      stat / listing (``Depth: 0`` = stat, ``Depth: 1`` = listing)
PROPPATCH     the SeGShare extensions, via ``X-SeGShare-*`` headers:
              ``X-SeGShare-Set-Permission: <group> <perms>``,
              ``X-SeGShare-Inherit: 0|1``,
              ``X-SeGShare-Add-Owner: <group>``
============  ==========================================================

The adapter sits *inside* the enclave boundary conceptually (it parses
plaintext requests), so it is intentionally tiny: parse, dispatch to
:class:`repro.core.request_handler.RequestHandler`, render a status.
"""

from __future__ import annotations

from repro.core.request_handler import RequestHandler
from repro.core.requests import Op, Request, Response, StatInfo, Status
from repro.errors import WebDavError
from repro.tls.channel import StreamingResponse
from repro.webdav.http import HttpRequest, HttpResponse, Method


def _status_of(response: Response, created: bool = False) -> HttpResponse:
    if response.status is Status.OK:
        if created:
            return HttpResponse(201, "Created")
        return HttpResponse(200, "OK")
    if response.status is Status.DENIED:
        return HttpResponse(403, "Forbidden")
    body = response.message.encode("utf-8")
    if response.status in (Status.RETRY, Status.UNAVAILABLE):
        # Transient: the same request may succeed later, unlike a conflict.
        return HttpResponse(503, "Service Unavailable", body=body)
    return HttpResponse(409, "Conflict", body=body)


class WebDavAdapter:
    """Translates WebDAV messages for one authenticated user."""

    def __init__(self, handler: RequestHandler) -> None:
        self._handler = handler

    def _op(self, user_id: str, op: Op, *args: str) -> Response:
        result = self._handler.handle(user_id, Request(op=op, args=args))
        assert isinstance(result, Response)
        return result

    def dispatch(self, user_id: str, request: HttpRequest) -> HttpResponse:
        method = request.method
        if method is Method.PUT:
            response = self._handler.put_file(user_id, request.path, request.body)
            return _status_of(response, created=True)
        if method is Method.MKCOL:
            return _status_of(self._op(user_id, Op.PUT_DIR, request.path), created=True)
        if method is Method.GET:
            return self._get(user_id, request)
        if method is Method.DELETE:
            return _status_of(self._op(user_id, Op.REMOVE, request.path))
        if method is Method.MOVE:
            destination = request.header("destination")
            if destination is None:
                raise WebDavError("MOVE requires a Destination header")
            return _status_of(self._op(user_id, Op.MOVE, request.path, destination))
        if method is Method.PROPFIND:
            return self._propfind(user_id, request)
        if method is Method.PROPPATCH:
            return self._proppatch(user_id, request)
        raise WebDavError(f"unsupported method {method}")

    def _get(self, user_id: str, request: HttpRequest) -> HttpResponse:
        result = self._handler.handle(
            user_id, Request(op=Op.GET, args=(request.path,))
        )
        if isinstance(result, StreamingResponse):
            body = b"".join(result.chunks)
            header = Response.deserialize(result.header)
            if header.status is not Status.OK:
                return _status_of(header)
            return HttpResponse(
                200, "OK", headers={"content-type": "application/octet-stream"}, body=body
            )
        if result.status is Status.OK:
            body = "\n".join(result.listing).encode("utf-8")
            return HttpResponse(200, "OK", headers={"content-type": "text/plain"}, body=body)
        return _status_of(result)

    def _propfind(self, user_id: str, request: HttpRequest) -> HttpResponse:
        depth = request.header("depth", "0")
        if depth == "1" and request.path.endswith("/"):
            result = self._handler.handle(user_id, Request(op=Op.GET, args=(request.path,)))
            if isinstance(result, StreamingResponse) or result.status is not Status.OK:
                return HttpResponse(409, "Conflict")
            body = "\n".join(result.listing).encode("utf-8")
            return HttpResponse(207, "Multi-Status", body=body)
        result = self._op(user_id, Op.STAT, request.path)
        if result.status is not Status.OK:
            return _status_of(result)
        info = StatInfo.deserialize(result.payload)
        kind = "collection" if info.is_dir else "file"
        body = f"{kind} size={info.size} inherit={int(info.inherit)}".encode("utf-8")
        return HttpResponse(207, "Multi-Status", body=body)

    def _proppatch(self, user_id: str, request: HttpRequest) -> HttpResponse:
        permission = request.header("x-segshare-set-permission")
        if permission is not None:
            parts = permission.rsplit(" ", 1)
            if len(parts) == 1 or parts[1] not in ("r", "w", "rw", "deny"):
                group, perms = permission, ""
            else:
                group, perms = parts
            return _status_of(
                self._op(user_id, Op.SET_PERM, request.path, group, perms)
            )
        inherit = request.header("x-segshare-inherit")
        if inherit is not None:
            return _status_of(self._op(user_id, Op.SET_INHERIT, request.path, inherit))
        owner = request.header("x-segshare-add-owner")
        if owner is not None:
            return _status_of(self._op(user_id, Op.ADD_FILE_OWNER, request.path, owner))
        raise WebDavError("PROPPATCH without a recognized X-SeGShare header")
