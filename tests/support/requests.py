"""Driving a request handler from a test the way the server does."""

from __future__ import annotations

from repro.core.requests import Op, Request, Response, Status


def request(handler, user_id: str, op: Op, *args: str) -> Response:
    """``op`` as the server runs it: under its locks and, if it mutates,
    in a transaction (a guard walk runs only inside one).  It must answer
    OK."""
    response = handler.handle(user_id, Request(op=op, args=args))
    assert response.status is Status.OK, response
    return response
