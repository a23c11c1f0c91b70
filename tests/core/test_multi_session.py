"""Many concurrent TLS sessions against one enclave, interleaved."""

import pytest

from repro.errors import AccessDenied, TlsError


class TestInterleaving:
    def test_many_sessions_interleave(self, deployment):
        clients = [deployment.new_user(f"user{i}") for i in range(4)]
        # Round-robin: each user writes, then everyone reads their own.
        for round_no in range(3):
            for i, client in enumerate(clients):
                client.upload(f"/u{i}-r{round_no}.dat", f"{i}/{round_no}".encode())
            for i, client in enumerate(clients):
                assert client.download(f"/u{i}-r{round_no}.dat") == f"{i}/{round_no}".encode()

    def test_same_user_multiple_sessions(self, deployment, user_key):
        identity = deployment.user_identity("alice", key=user_key)
        session_a = deployment.connect(identity)
        session_b = deployment.connect(identity)
        session_a.upload("/f", b"from A")
        assert session_b.download("/f") == b"from A"
        session_b.upload("/f", b"from B")
        assert session_a.download("/f") == b"from B"

    def test_permissions_visible_across_sessions_immediately(self, deployment):
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")  # connected BEFORE the grant
        alice.upload("/f", b"x")
        with pytest.raises(AccessDenied):
            bob.download("/f")
        alice.set_permission("/f", "u:bob", "r")
        assert bob.download("/f") == b"x"  # same bob session, no reconnect
        alice.set_permission("/f", "u:bob", "")
        with pytest.raises(AccessDenied):
            bob.download("/f")

    def test_session_failure_does_not_poison_others(self, deployment):
        alice = deployment.new_user("alice")
        mallory = deployment.new_user("mallory")
        alice.upload("/f", b"stable")
        # Mallory's session dies on a record-layer violation (the enclave
        # answers garbage with an alert and tears the session down)...
        mallory._tls._conn.send(b"\x00garbage-record")
        with pytest.raises(TlsError):
            mallory.download("/f")
        # ...alice's session is unaffected.
        assert alice.download("/f") == b"stable"

    def test_revocation_is_membership_not_certificate(self, deployment, user_key):
        """The enclave checks no revocation list: a certificate stays valid,
        and access is revoked through membership (the paper's design).  A
        removed member is denied on the session it holds and on a new one."""
        owner = deployment.new_user("owner")
        owner.upload("/team.txt", b"plans")
        owner.add_user("mallory", "team")
        owner.set_permission("/team.txt", "team", "r")
        identity = deployment.user_identity("mallory", key=user_key)
        client = deployment.connect(identity)
        assert client.download("/team.txt") == b"plans"
        owner.remove_user("mallory", "team")
        with pytest.raises(AccessDenied):
            client.download("/team.txt")
        with pytest.raises(AccessDenied):
            deployment.connect(identity).download("/team.txt")
