"""WebDAV verbs against a full SeGShare handler."""

import pytest

from repro.core.model import default_group
from repro.errors import WebDavError
from repro.faults import FaultPlan, faulty_stores
from repro.storage.stores import StoreSet
from repro.webdav import HttpRequest, Method, WebDavAdapter
from tests.core.conftest import build_world


def make_adapter(stores):
    return WebDavAdapter(build_world(stores=stores).handler)


@pytest.fixture()
def adapter():
    return make_adapter(StoreSet.in_memory())


def req(method, path, body=b"", **headers):
    return HttpRequest(method, path, headers=headers, body=body)


class TestVerbs:
    def test_put_creates(self, adapter):
        response = adapter.dispatch("alice", req(Method.PUT, "/f", b"data"))
        assert response.status == 201

    def test_get_returns_content(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b"data"))
        response = adapter.dispatch("alice", req(Method.GET, "/f"))
        assert response.status == 200
        assert response.body == b"data"

    def test_mkcol_and_propfind_depth1(self, adapter):
        assert adapter.dispatch("alice", req(Method.MKCOL, "/d/")).status == 201
        adapter.dispatch("alice", req(Method.PUT, "/d/f", b""))
        response = adapter.dispatch("alice", req(Method.PROPFIND, "/d/", depth="1"))
        assert response.status == 207
        assert b"/d/f" in response.body

    def test_propfind_depth0_stat(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b"12345"))
        response = adapter.dispatch("alice", req(Method.PROPFIND, "/f", depth="0"))
        assert response.status == 207
        assert b"size=5" in response.body

    def test_move(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/a", b"x"))
        response = adapter.dispatch(
            "alice", req(Method.MOVE, "/a", destination="/b")
        )
        assert response.status == 200
        assert adapter.dispatch("alice", req(Method.GET, "/b")).body == b"x"

    def test_move_requires_destination(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/a", b""))
        with pytest.raises(WebDavError):
            adapter.dispatch("alice", req(Method.MOVE, "/a"))

    def test_delete(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b""))
        assert adapter.dispatch("alice", req(Method.DELETE, "/f")).status == 200
        assert adapter.dispatch("alice", req(Method.GET, "/f")).status == 403


class TestPermissionExtension:
    def test_proppatch_grants_access(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b"shared"))
        assert adapter.dispatch("bob", req(Method.GET, "/f")).status == 403
        response = adapter.dispatch(
            "alice",
            req(
                Method.PROPPATCH,
                "/f",
                **{"x-segshare-set-permission": f"{default_group('bob')} r"},
            ),
        )
        assert response.status == 200
        assert adapter.dispatch("bob", req(Method.GET, "/f")).body == b"shared"

    def test_proppatch_inherit(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b""))
        response = adapter.dispatch(
            "alice", req(Method.PROPPATCH, "/f", **{"x-segshare-inherit": "1"})
        )
        assert response.status == 200

    def test_proppatch_add_owner(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b""))
        response = adapter.dispatch(
            "alice",
            req(
                Method.PROPPATCH,
                "/f",
                **{"x-segshare-add-owner": default_group("bob")},
            ),
        )
        assert response.status == 200
        # bob can now set permissions.
        response = adapter.dispatch(
            "bob",
            req(
                Method.PROPPATCH,
                "/f",
                **{"x-segshare-set-permission": f"{default_group('carol')} rw"},
            ),
        )
        assert response.status == 200

    def test_proppatch_without_known_header(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b""))
        with pytest.raises(WebDavError):
            adapter.dispatch("alice", req(Method.PROPPATCH, "/f", whatever="x"))


class TestStatusMapping:
    def test_denied_is_403(self, adapter):
        adapter.dispatch("alice", req(Method.PUT, "/f", b""))
        assert adapter.dispatch("bob", req(Method.DELETE, "/f")).status == 403

    def test_conflict_is_409(self, adapter):
        response = adapter.dispatch("alice", req(Method.MKCOL, "/a/b/c/"))
        assert response.status == 409

    def test_transient_fault_is_503_not_a_conflict(self):
        plan = FaultPlan()
        adapter = make_adapter(faulty_stores(StoreSet.in_memory(), plan))
        adapter.dispatch("alice", req(Method.PUT, "/f", b"data"))
        plan.fail_nth(nth=1, op="get", store="content")
        response = adapter.dispatch("alice", req(Method.GET, "/f"))
        assert response.status == 503 and response.body  # the fault's message
        assert adapter.dispatch("alice", req(Method.GET, "/f")).body == b"data"
