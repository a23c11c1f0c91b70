"""Filename and directory-structure hiding (§V-C)."""

from repro.core.hiding import HmacPathTransform, IdentityTransform
from tests.support.dedup import object_count


class TestTransforms:
    def test_identity_passthrough(self):
        assert IdentityTransform().storage_path("/D/f") == "/D/f"

    def test_hmac_is_deterministic(self):
        t = HmacPathTransform(bytes(32))
        assert t.storage_path("/D/f") == t.storage_path("/D/f")

    def test_hmac_keyed(self):
        a = HmacPathTransform(bytes(32))
        b = HmacPathTransform(b"\x01" + bytes(31))
        assert a.storage_path("/D/f") != b.storage_path("/D/f")

    def test_output_is_flat_hex(self):
        hidden = HmacPathTransform(bytes(32)).storage_path("/very/deep/path/")
        assert "/" not in hidden
        int(hidden, 16)  # valid hex
        assert len(hidden) == 64


class TestSystemLevel:
    def test_storage_keys_reveal_nothing(self, make_world):
        world = make_world(hide_paths=True)
        world.handler.put_dir("alice", "/secret-project/")
        world.handler.put_file("alice", "/secret-project/plans.txt", b"x")
        for key in world.stores.content.keys():
            assert "secret" not in key
            assert "plans" not in key
            assert "/" not in key.split("\x00")[0]  # flat namespace

    def test_directory_listing_still_works(self, make_world):
        world = make_world(hide_paths=True)
        world.handler.put_dir("alice", "/d/")
        world.handler.put_file("alice", "/d/f1", b"1")
        world.handler.put_file("alice", "/d/f2", b"2")
        assert world.handler.get("alice", "/d/").listing == ("/d/f1", "/d/f2")

    def test_content_round_trip(self, make_world):
        world = make_world(hide_paths=True)
        world.handler.put_file("alice", "/f", b"payload")
        assert world.manager.read_content("/f") == b"payload"

    def test_hidden_and_plain_stores_are_disjoint(self, make_world):
        plain = make_world(hide_paths=False)
        hidden = make_world(hide_paths=True)
        plain.handler.put_file("alice", "/f", b"x")
        hidden.handler.put_file("alice", "/f", b"x")
        plain_keys = {k.split("\x00")[0] for k in plain.stores.content.keys()}
        hidden_keys = {k.split("\x00")[0] for k in hidden.stores.content.keys()}
        assert "/f" in plain_keys
        assert "/f" not in hidden_keys

    def test_hiding_composes_with_rollback(self, make_world):
        world = make_world(hide_paths=True, rollback=True)
        world.handler.put_dir("alice", "/d/")
        world.handler.put_file("alice", "/d/f", b"guarded")
        assert world.manager.read_content("/d/f") == b"guarded"

    def test_hiding_composes_with_dedup(self, make_world):
        world = make_world(hide_paths=True, enable_dedup=True)
        world.handler.put_file("alice", "/a", b"same")
        world.handler.put_file("alice", "/b", b"same")
        assert object_count(world.manager.dedup) == 1
        assert world.manager.read_content("/b") == b"same"
