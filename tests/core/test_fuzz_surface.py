"""Fuzzing the attacker-reachable surfaces.

The untrusted host and the network can feed the enclave arbitrary bytes;
none of it may crash the server or leak anything beyond a generic alert
or error response.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import Request, Response, Status
from repro.errors import ReproError, TlsError
from repro.tls.records import TlsRecord
from repro.webdav.http import HttpRequest, HttpResponse


@pytest.fixture(scope="module")
def shared_deployment(user_key):
    from repro.core.server import deploy
    from repro.netsim import azure_wan_env

    deployment = deploy(env=azure_wan_env())
    client = deployment.new_user("fuzzer", key=user_key)
    return deployment, client


@settings(max_examples=80, deadline=None)
@given(raw=st.binary(max_size=200))
def test_garbage_records_yield_alerts_not_crashes(shared_deployment, raw):
    """Arbitrary bytes into the enclave's record ECALL: at most one alert
    record back, never an exception escaping the boundary."""
    deployment, _ = shared_deployment
    handle = deployment.server.handle
    session_id = handle.call("new_session")
    replies = handle.call("on_record", session_id, raw)
    assert isinstance(replies, list)
    for reply in replies:
        TlsRecord.deserialize(reply)  # well-formed even under garbage input


@settings(max_examples=80, deadline=None)
@given(payload=st.binary(max_size=200))
def test_garbage_request_payloads_yield_error_responses(shared_deployment, payload):
    """Arbitrary plaintext payloads through a REAL session: the client
    always gets a parseable Response or a TLS-level alert."""
    _, client = shared_deployment
    try:
        header, _ = client._tls.request_full(payload)
    except TlsError:
        return  # session torn down with an alert — acceptable
    if header.startswith(b"HTTP/1.1"):
        # The payload selected the WebDAV protocol; garbage maps to 4xx.
        assert HttpResponse.parse(header).status >= 400
        return
    response = Response.deserialize(header)
    assert response.status in (Status.ERROR, Status.DENIED)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=100))
def test_request_deserialize_never_crashes(data):
    try:
        Request.deserialize(data)
    except ReproError:
        pass  # structured rejection is the only acceptable failure


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=100))
def test_response_deserialize_never_crashes(data):
    try:
        Response.deserialize(data)
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(head=st.binary(max_size=60), length=st.text(max_size=6), body=st.binary(max_size=20))
def test_http_parsers_never_crash(head, length, body):
    """Free-form bytes, and a well-formed start line over a free-form
    Content-Length: a WebDavError or a parsed message, nothing else."""
    framed = b"\r\nContent-Length: " + length.encode("utf-8") + b"\r\n\r\n" + body
    for raw in (head, b"PUT /a HTTP/1.1" + framed, b"HTTP/1.1 " + head + framed):
        for parse in (HttpRequest.parse, HttpResponse.parse):
            try:
                parse(raw)
            except ReproError:
                pass
