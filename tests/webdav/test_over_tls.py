"""WebDAV end to end: client → TLS → enclave → adapter (§VI)."""

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.webdav.client import WebDavTlsClient


@pytest.fixture()
def dav(deployment):
    return WebDavTlsClient(deployment.new_user("alice")._tls)


class TestVerbsOverTls:
    def test_put_get(self, dav):
        assert dav.put("/f.txt", b"over the wire").status == 201
        response = dav.get("/f.txt")
        assert response.status == 200
        assert response.body == b"over the wire"

    def test_mkcol_propfind(self, dav):
        assert dav.mkcol("/d/").status == 201
        dav.put("/d/x", b"")
        response = dav.propfind("/d/", depth="1")
        assert response.status == 207
        assert b"/d/x" in response.body

    def test_move_delete(self, dav):
        dav.put("/a", b"m")
        assert dav.move("/a", "/b").status == 200
        assert dav.get("/b").body == b"m"
        assert dav.delete("/b").status == 200
        assert dav.get("/b").status == 403

    def test_malformed_message_is_400(self, deployment):
        alice = deployment.new_user("alice")
        from repro.webdav.client import WEBDAV_MARKER
        from repro.webdav.http import HttpResponse

        reply = alice._tls.request(WEBDAV_MARKER + b"garbage not http")
        assert HttpResponse.parse(reply).status == 400

    def test_bad_content_length_is_400_and_the_session_survives(self, make_deployment):
        """A header that is not a number is one more malformed message:
        answered 400 and audited, not a reason to drop the session."""
        from repro.webdav.client import WEBDAV_MARKER
        from repro.webdav.http import HttpResponse

        deployment = make_deployment(SeGShareOptions(audit=True))
        alice = deployment.new_user("alice")
        raw = WEBDAV_MARKER + b"PUT /a HTTP/1.1\r\nContent-Length: x\r\n\r\nhello"
        assert HttpResponse.parse(alice._tls.request(raw)).status == 400
        assert WebDavTlsClient(alice._tls).put("/a", b"hello").status == 201  # same session
        outcomes = [(r.op, r.outcome) for r in deployment.server.enclave.audit_log.read_all()]
        assert outcomes == [("DAV", "400"), ("DAV-PUT", "201")]


class TestCrossUserOverTls:
    def test_sharing_via_proppatch(self, deployment):
        alice = WebDavTlsClient(deployment.new_user("alice")._tls)
        bob = WebDavTlsClient(deployment.new_user("bob")._tls)
        alice.put("/doc", b"dav shared")
        assert bob.get("/doc").status == 403
        assert alice.set_permission("/doc", "u:bob", "r").status == 200
        assert bob.get("/doc").body == b"dav shared"
        assert alice.set_permission("/doc", "u:bob", "").status == 200
        assert bob.get("/doc").status == 403

    def test_native_and_webdav_protocols_coexist(self, deployment):
        alice = deployment.new_user("alice")
        dav = WebDavTlsClient(alice._tls)
        alice.upload("/native", b"binary protocol")
        assert dav.get("/native").body == b"binary protocol"
        dav.put("/dav", b"webdav protocol")
        assert alice.download("/dav") == b"webdav protocol"


class TestAuditIntegration:
    def test_webdav_requests_are_audited(self, make_deployment):
        deployment = make_deployment(SeGShareOptions(audit=True))
        dav = WebDavTlsClient(deployment.new_user("alice")._tls)
        dav.put("/f", b"x")
        dav.get("/f")
        ops = [r.op for r in deployment.server.enclave.audit_log.read_all()]
        assert "DAV-PUT" in ops and "DAV-GET" in ops
