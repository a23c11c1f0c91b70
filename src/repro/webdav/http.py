"""A minimal HTTP/WebDAV message model.

Covers what a WebDAV file-sharing client actually sends: the method line,
headers, and body.  Parsing is strict about structure (CRLF lines, a
``Header: value`` per line, Content-Length-delimited body) and tolerant
about header case, per RFC 7230's field-name rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import WebDavError

CRLF = b"\r\n"


def _number(text: str, what: str) -> int:
    """A decimal field from the wire; anything else is a malformed message."""
    try:
        return int(text)
    except ValueError:
        raise WebDavError(f"{what} is not a number: {text!r}") from None


class Method(enum.Enum):
    GET = "GET"
    PUT = "PUT"
    DELETE = "DELETE"
    MKCOL = "MKCOL"  # create collection (directory)
    MOVE = "MOVE"
    PROPFIND = "PROPFIND"  # directory listing / metadata
    PROPPATCH = "PROPPATCH"  # SeGShare permission extensions


@dataclass
class HttpRequest:
    """One parsed WebDAV request."""

    method: Method
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    def serialize(self) -> bytes:
        lines = [f"{self.method.value} {self.path} HTTP/1.1".encode("ascii")]
        headers = dict(self.headers)
        headers["content-length"] = str(len(self.body))
        for name in sorted(headers):
            lines.append(f"{name}: {headers[name]}".encode("ascii"))
        return CRLF.join(lines) + CRLF + CRLF + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "HttpRequest":
        head, _, body = raw.partition(CRLF + CRLF)
        lines = head.split(CRLF)
        if not lines or not lines[0]:
            raise WebDavError("empty request")
        parts = lines[0].decode("ascii", "replace").split(" ")
        if len(parts) != 3 or parts[2] != "HTTP/1.1":
            raise WebDavError(f"malformed request line: {lines[0]!r}")
        try:
            method = Method(parts[0])
        except ValueError:
            raise WebDavError(f"unsupported method {parts[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.decode("ascii", "replace").partition(":")
            if not sep:
                raise WebDavError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length")
        if declared is not None and _number(declared, "Content-Length") != len(body):
            raise WebDavError("Content-Length does not match body size")
        return cls(method=method, path=parts[1], headers=headers, body=body)


@dataclass
class HttpResponse:
    """One WebDAV response."""

    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def serialize(self) -> bytes:
        lines = [f"HTTP/1.1 {self.status} {self.reason}".encode("ascii")]
        headers = dict(self.headers)
        headers["content-length"] = str(len(self.body))
        for name in sorted(headers):
            lines.append(f"{name}: {headers[name]}".encode("ascii"))
        return CRLF.join(lines) + CRLF + CRLF + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "HttpResponse":
        head, _, body = raw.partition(CRLF + CRLF)
        lines = head.split(CRLF)
        parts = lines[0].decode("ascii", "replace").split(" ", 2)
        if len(parts) < 3 or parts[0] != "HTTP/1.1":
            raise WebDavError(f"malformed status line: {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.decode("ascii", "replace").partition(":")
            if not sep:
                raise WebDavError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return cls(status=_number(parts[1], "status code"), reason=parts[2], headers=headers, body=body)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
