"""End-to-end integration: client → TLS → enclave → stores and back."""

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.model import default_group
from repro.core.requests import Op, Request
from repro.errors import AccessDenied, EnclaveCrashed, RequestError, TlsError
from repro.tls import records
from repro.tls.channel import _KIND_STREAM, _message_header
from repro.tls.session import STREAM_CHUNK


class TestFileLifecycle:
    def test_upload_download(self, deployment):
        alice = deployment.new_user("alice")
        alice.upload("/f.txt", b"hello")
        assert alice.download("/f.txt") == b"hello"

    def test_large_file_streams(self, deployment):
        alice = deployment.new_user("alice")
        data = bytes(range(256)) * (STREAM_CHUNK // 64)  # several chunks
        alice.upload("/big", data)
        assert alice.download("/big") == data

    def test_empty_file(self, deployment):
        alice = deployment.new_user("alice")
        alice.upload("/empty", b"")
        assert alice.download("/empty") == b""

    def test_mkdir_listdir(self, deployment):
        alice = deployment.new_user("alice")
        alice.mkdir("/d/")
        alice.upload("/d/a", b"1")
        alice.upload("/d/b", b"2")
        assert alice.listdir("/d/") == ["/d/a", "/d/b"]

    def test_move_and_remove(self, deployment):
        alice = deployment.new_user("alice")
        alice.upload("/a", b"x")
        alice.move("/a", "/b")
        assert alice.download("/b") == b"x"
        alice.remove("/b")
        assert not alice.exists("/b")

    def test_stat(self, deployment):
        alice = deployment.new_user("alice")
        alice.upload("/f", b"12345")
        info = alice.stat("/f")
        assert info.size == 5 and not info.is_dir


class TestSharingFlows:
    def test_group_sharing_and_revocation(self, deployment):
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/doc", b"secret")
        with pytest.raises(AccessDenied):
            bob.download("/doc")
        alice.add_user("bob", "eng")
        alice.set_permission("/doc", "eng", "r")
        assert bob.download("/doc") == b"secret"
        alice.remove_user("bob", "eng")
        with pytest.raises(AccessDenied):
            bob.download("/doc")

    def test_individual_sharing_via_default_group(self, deployment):
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/doc", b"v1")
        alice.set_permission("/doc", default_group("bob"), "rw")
        bob.upload("/doc", b"v2")
        assert alice.download("/doc") == b"v2"

    def test_write_without_read(self, deployment):
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/dropbox", b"")
        alice.set_permission("/dropbox", default_group("bob"), "w")
        bob.upload("/dropbox", b"submission")
        with pytest.raises(AccessDenied):
            bob.download("/dropbox")
        assert alice.download("/dropbox") == b"submission"

    def test_get_acl_and_owners(self, deployment):
        alice = deployment.new_user("alice")
        alice.upload("/f", b"x")
        alice.add_user("bob", "team")
        alice.set_permission("/f", "team", "r")
        acl = alice.get_acl("/f")
        assert acl.owners == (default_group("alice"),)
        assert ("team", "r") in acl.entries

    def test_my_groups(self, deployment):
        alice = deployment.new_user("alice")
        alice.add_user("alice", "eng")
        assert set(alice.my_groups()) == {default_group("alice"), "eng"}

    def test_owner_handover(self, deployment):
        """Ownership can be extended and then withdrawn from the original
        owner — a complete handover."""
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/f", b"x")
        alice.add_owner("/f", default_group("bob"))
        bob.remove_owner("/f", default_group("alice"))
        with pytest.raises(AccessDenied):
            alice.set_permission("/f", "anyone", "")
        assert bob.get_acl("/f").owners == (default_group("bob"),)


class TestIdentity:
    def test_authorization_follows_certificate_identity(self, deployment, user_key):
        """Separation of authentication and authorization (F8): a second
        certificate for the same uid — e.g. a second device — gets the
        same permissions without any server-side change."""
        alice_laptop = deployment.new_user("alice")
        alice_laptop.upload("/f", b"mine")
        alice_phone = deployment.connect(deployment.user_identity("alice", key=user_key))
        assert alice_phone.download("/f") == b"mine"

    def test_identities_are_isolated(self, deployment):
        deployment.new_user("alice").upload("/f", b"x")
        mallory = deployment.new_user("mallory")
        with pytest.raises(AccessDenied):
            mallory.download("/f")

    def test_errors_do_not_leak_existence(self, deployment):
        """A user denied on an existing path and one probing a missing path
        must see the same response."""
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/real", b"x")
        with pytest.raises(AccessDenied):
            bob.download("/real")
        with pytest.raises(AccessDenied):
            bob.download("/missing")


class TestExtensionsEndToEnd:
    def test_full_option_stack(self, make_deployment):
        deployment = make_deployment(
            SeGShareOptions(
                hide_paths=True,
                enable_dedup=True,
                rollback="whole_fs",
                counter_kind="rote",
            )
        )
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.mkdir("/d/")
        alice.upload("/d/f", b"everything on")
        alice.set_permission("/d/f", default_group("bob"), "r")
        assert bob.download("/d/f") == b"everything on"
        # Dedup across users still enforces per-file permissions.
        alice.upload("/d/g", b"everything on")
        with pytest.raises(AccessDenied):
            bob.download("/d/g")

    def test_inheritance_over_the_wire(self, deployment):
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.mkdir("/d/")
        alice.add_user("bob", "eng")
        alice.set_permission("/d/", "eng", "r")
        alice.upload("/d/f", b"inherited")
        with pytest.raises(AccessDenied):
            bob.download("/d/f")
        alice.set_inherit("/d/f", True)
        assert bob.download("/d/f") == b"inherited"


class TestErrorMapping:
    def test_request_error_surfaces_message(self, deployment):
        alice = deployment.new_user("alice")
        with pytest.raises(RequestError):
            alice.mkdir("/a/b/c/")  # missing intermediate directory

    def test_exists_helper(self, deployment):
        alice = deployment.new_user("alice")
        assert not alice.exists("/nope")
        alice.upload("/yes", b"")
        assert alice.exists("/yes")


class TestDroppedSessionMidUpload:
    """A session torn down mid-upload takes its streamed chunks with it at
    once: the sweep runs only at a restart or takeover, so nothing may be
    left behind until then."""

    @pytest.fixture()
    def streaming(self, make_deployment):
        """Alice's channel with a two-chunk PUT_FILE announced and its first
        8 KiB chunk already streamed into the dedup store."""
        deployment = make_deployment(SeGShareOptions(enable_dedup=True))
        alice = deployment.new_user("alice")
        alice.upload("/kept", b"k" * 100)
        dedup = deployment.server.stores.dedup
        before = set(dedup.keys())
        tls = alice._tls

        def send(plaintext: bytes) -> None:
            tls._send_record(records.data_record(tls._session.protect(plaintext)))

        header = Request(op=Op.PUT_FILE, args=("/evil",)).serialize()
        send(_message_header(_KIND_STREAM, header, 2, 8192))
        send(bytes(8192))
        assert set(dedup.keys()) > before  # the chunks are out there
        return deployment, alice, send, lambda: set(dedup.keys()) ^ before

    def test_overflowing_stream_is_aborted(self, streaming):
        _, alice, send, changed_keys = streaming
        send(bytes(8192))  # 16 KiB against the 8 KiB announced
        with pytest.raises(TlsError, match="session error"):
            records.parse_record(alice._tls._conn.recv(), records.ContentType.APPLICATION_DATA)
        assert changed_keys() == set()

    def test_disconnect_is_aborted(self, streaming):
        deployment, _, _, changed_keys = streaming
        session_id = max(deployment.server.enclave.tls._sessions)
        deployment.server.handle.call("close_session", session_id)
        assert changed_keys() == set()
        reconnected = deployment.connect(deployment.user_identity("alice"))
        assert reconnected.download("/kept") == b"k" * 100

    def test_closed_connection_is_aborted(self, streaming):
        """The client closing its end runs the close_session ECALL: the
        session goes, and so does the half-streamed upload's object."""
        deployment, alice, _, changed_keys = streaming
        alice.close()
        assert deployment.server.enclave.tls._sessions == {}
        assert changed_keys() == set()
        reconnected = deployment.connect(deployment.user_identity("alice"))
        assert reconnected.download("/kept") == b"k" * 100
        assert not reconnected.exists("/evil")


class TestSessionLifetime:
    def test_closed_connections_leave_no_session(self, deployment):
        identity = deployment.user_identity("alice")
        for i in range(5):
            client = deployment.connect(identity)
            client.upload(f"/f{i}", b"x" * i)
            client.close()
        assert deployment.server.enclave.tls._sessions == {}

    def test_an_old_connection_leaves_the_new_sessions_alone(self, deployment):
        """A restarted enclave numbers its sessions afresh: a request on, or
        the close of, a connection to the old enclave must not reach the
        new connection's session of the same number."""
        identity = deployment.user_identity("alice")
        old = deployment.connect(identity)
        deployment.server.restart_enclave()
        new = deployment.connect(identity)
        with pytest.raises(EnclaveCrashed):
            old.download("/f")
        old.close()
        new.upload("/after", b"still here")
        assert new.download("/after") == b"still here"
