"""Backup and restore (§V-G), including the CA-signed reset flow."""

import pytest

from repro.core.backup import authorize_restore, ca_signed_reset, restore_backup, take_backup
from repro.core.enclave_app import SeGShareOptions
from repro.errors import AccessDenied, RequestError, RollbackDetected


@pytest.fixture()
def protected_deployment(make_deployment):
    return make_deployment(SeGShareOptions(rollback="whole_fs", counter_kind="rote"))


class TestPlainBackup:
    def test_backup_restore_without_rollback_protection(self, deployment):
        identity = deployment.user_identity("alice")
        alice = deployment.connect(identity)
        alice.upload("/f", b"v1")
        snapshot = take_backup(deployment.server)
        alice.upload("/f", b"v2")
        restore_backup(deployment.server, snapshot)
        # Same enclave, sealed keys intact: the restored state just serves.
        assert deployment.connect(identity).download("/f") == b"v1"


class TestProtectedRestore:
    def test_unauthorized_restore_detected(self, protected_deployment):
        deployment = protected_deployment
        identity = deployment.user_identity("alice")
        alice = deployment.connect(identity)
        alice.upload("/f", b"v1")
        snapshot = take_backup(deployment.server)
        alice.upload("/f", b"v2")
        restore_backup(deployment.server, snapshot)
        with pytest.raises(RequestError, match="integrity"):
            deployment.connect(identity).download("/f")

    def test_authorized_restore_accepted(self, protected_deployment):
        deployment = protected_deployment
        identity = deployment.user_identity("alice")
        alice = deployment.connect(identity)
        alice.upload("/f", b"v1")
        snapshot = take_backup(deployment.server)
        alice.upload("/f", b"v2")
        restore_backup(deployment.server, snapshot)
        authorize_restore(deployment.ca, deployment.server)
        assert deployment.connect(identity).download("/f") == b"v1"

    def test_revocation_rollback_needs_authorization(self, protected_deployment):
        """The provider cannot silently restore a backup to resurrect a
        revoked membership."""
        deployment = protected_deployment
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/secret", b"s")
        alice.add_user("bob", "g")
        alice.set_permission("/secret", "g", "r")
        snapshot = take_backup(deployment.server)
        alice.remove_user("bob", "g")
        restore_backup(deployment.server, snapshot)
        with pytest.raises((RequestError, AccessDenied)):
            bob.download("/secret")

    def test_forged_reset_rejected(self, protected_deployment, make_deployment):
        deployment = protected_deployment
        other = make_deployment()  # different CA
        nonce, signature = ca_signed_reset(other.ca, deployment.server)
        with pytest.raises(Exception):
            deployment.server.handle.call("reset_after_restore", nonce, signature)

    def test_reset_is_platform_bound(self, protected_deployment, make_deployment):
        """A reset message signed for one platform must not authorize a
        reset on another."""
        deployment = protected_deployment
        other = make_deployment(SeGShareOptions(rollback="whole_fs", counter_kind="rote"))
        nonce, signature = ca_signed_reset(deployment.ca, other.server)
        with pytest.raises(Exception):
            deployment.server.handle.call("reset_after_restore", nonce, signature)

    def test_tampered_restore_fails_consistency_check(self, protected_deployment):
        """Even with a valid CA reset, an internally inconsistent snapshot
        (tampered after the backup was taken) is rejected."""
        deployment = protected_deployment
        identity = deployment.user_identity("alice")
        alice = deployment.connect(identity)
        alice.upload("/f", b"v1")
        snapshot = take_backup(deployment.server)
        snapshot["content"] = dict(snapshot["content"])
        for key in list(snapshot["content"]):
            if key.startswith("/f\x00"):
                snapshot["content"][key] = b"\x00" * 32  # corrupt the file
        alice.upload("/f", b"v2")
        restore_backup(deployment.server, snapshot)
        with pytest.raises(Exception):
            authorize_restore(deployment.ca, deployment.server)

    def test_restore_mixing_two_group_snapshots_rejected(self, protected_deployment):
        """A CA-authorized restore must be ONE snapshot.  A later backup
        with an earlier backup's member lists spliced into its group
        store would resurrect a revoked membership; the reset's
        consistency check covers the group store and refuses it."""
        deployment = protected_deployment
        alice = deployment.new_user("alice")
        bob = deployment.new_user("bob")
        alice.upload("/secret", b"s")
        alice.add_user("bob", "g")
        alice.set_permission("/secret", "g", "r")
        early = take_backup(deployment.server)
        alice.remove_user("bob", "g")
        late = take_backup(deployment.server)
        spliced = {
            key: value
            for key, value in early["group"].items()
            if not key.startswith("\x00rbg:")
        }
        restore_backup(deployment.server, {**late, "group": {**late["group"], **spliced}})
        with pytest.raises(RollbackDetected):
            authorize_restore(deployment.ca, deployment.server)
        with pytest.raises((RequestError, AccessDenied)):
            bob.download("/secret")
