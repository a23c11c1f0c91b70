"""Root-key rotation: full re-keying under CA authorization."""

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.rotation import ca_authorized_rotation, rotate_message_bytes
from repro.errors import AccessDenied
from tests.support.dedup import object_count


@pytest.fixture()
def full_deployment(make_deployment):
    return make_deployment(
        SeGShareOptions(
            hide_paths=True,
            enable_dedup=True,
            rollback="whole_fs",
            counter_kind="rote",
            audit=True,
        )
    )


def populate(deployment):
    alice = deployment.new_user("alice")
    alice.mkdir("/docs/")
    alice.upload("/docs/a.txt", b"content a")
    alice.upload("/docs/b.txt", b"content b")
    alice.upload("/dup.txt", b"content a")  # dedup with /docs/a.txt
    alice.add_user("bob", "team")
    alice.set_permission("/docs/a.txt", "team", "r")
    alice.set_inherit("/docs/b.txt", True)
    return alice


class TestRotation:
    def test_state_survives_rotation(self, full_deployment):
        populate(full_deployment)
        stats = ca_authorized_rotation(full_deployment.ca, full_deployment.server)
        assert stats.files == 3
        assert stats.directories == 2  # "/" and "/docs/"
        alice = full_deployment.new_user("alice")
        bob = full_deployment.new_user("bob")
        assert alice.download("/docs/b.txt") == b"content b"
        assert bob.download("/docs/a.txt") == b"content a"
        assert alice.listdir("/docs/") == ["/docs/a.txt", "/docs/b.txt"]
        assert alice.get_acl("/docs/b.txt").inherit

    def test_every_ciphertext_changes(self, full_deployment):
        populate(full_deployment)
        before = dict(full_deployment.server.stores.content.snapshot())
        ca_authorized_rotation(full_deployment.ca, full_deployment.server)
        after = dict(full_deployment.server.stores.content.snapshot())
        unchanged = {
            key for key in before if key in after and before[key] == after[key]
        }
        # Only the platform's sealed server-cert slot may persist unchanged.
        assert all(key.startswith("\x00segshare:") for key in unchanged)

    def test_dedup_rebuilt_under_new_addresses(self, full_deployment):
        populate(full_deployment)
        enclave = full_deployment.server.enclave
        assert object_count(enclave.manager.dedup) == 2  # a==dup, b
        ca_authorized_rotation(full_deployment.ca, full_deployment.server)
        assert object_count(enclave.manager.dedup) == 2

    def test_audit_chain_replayed(self, full_deployment):
        populate(full_deployment)
        enclave = full_deployment.server.enclave
        before = [(r.user_id, r.op) for r in enclave.audit_log.read_all()]
        ca_authorized_rotation(full_deployment.ca, full_deployment.server)
        after = [(r.user_id, r.op) for r in enclave.audit_log.read_all()]
        assert after == before  # verified under the NEW key

    def test_rollback_protection_active_after_rotation(self, full_deployment):
        populate(full_deployment)
        ca_authorized_rotation(full_deployment.ca, full_deployment.server)
        alice = full_deployment.new_user("alice")
        alice.upload("/post.txt", b"after rotation")
        assert alice.download("/post.txt") == b"after rotation"
        # Guards still bite: tamper with the new ciphertext.
        store = full_deployment.server.stores.content
        enclave = full_deployment.server.enclave
        target = enclave.manager._sp("/post.txt")
        for key in list(store.keys()):
            if key.startswith(target) and key.endswith("\x00meta"):
                blob = bytearray(store.get(key))
                blob[-1] ^= 1
                store.put(key, bytes(blob))
        with pytest.raises(Exception):
            alice.download("/post.txt")

    def test_revocations_survive_rotation(self, full_deployment):
        alice = populate(full_deployment)
        alice.remove_user("bob", "team")
        ca_authorized_rotation(full_deployment.ca, full_deployment.server)
        bob = full_deployment.new_user("bob")
        with pytest.raises(AccessDenied):
            bob.download("/docs/a.txt")


class TestAuthorization:
    def test_forged_authorization_rejected(self, full_deployment, make_deployment):
        other = make_deployment()
        import secrets

        nonce = secrets.token_bytes(16)
        signature = other.ca.sign_message(
            rotate_message_bytes(full_deployment.server.platform.platform_id, nonce)
        )
        with pytest.raises(Exception):
            full_deployment.server.handle.call("rotate_root_key", nonce, signature)

    def test_reset_signature_does_not_authorize_rotation(self, full_deployment):
        """Domain separation: a §V-G reset signature must not rotate keys."""
        import secrets

        from repro.core.enclave_app import SeGShareEnclave

        nonce = secrets.token_bytes(16)
        reset_message = SeGShareEnclave.reset_message_bytes(
            full_deployment.server.platform.platform_id, nonce
        )
        signature = full_deployment.ca.sign_message(reset_message)
        with pytest.raises(Exception):
            full_deployment.server.handle.call("rotate_root_key", nonce, signature)

    def test_plain_deployment_rotates_too(self, deployment):
        alice = deployment.new_user("alice")
        alice.upload("/f", b"simple")
        stats = ca_authorized_rotation(deployment.ca, deployment.server)
        assert stats.files == 1
        assert deployment.new_user("alice").download("/f") == b"simple"
