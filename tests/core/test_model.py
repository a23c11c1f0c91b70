"""Users, groups, permissions: naming rules and default groups."""

import pytest

from repro.core.model import (
    default_group,
    default_group_member,
    is_default_group,
    validate_group_id,
    validate_user_id,
)
from repro.errors import RequestError


class TestDefaultGroups:
    def test_default_group_round_trip(self):
        g = default_group("alice")
        assert is_default_group(g)
        assert default_group_member(g) == "alice"

    def test_regular_group_is_not_default(self):
        assert not is_default_group("engineering")

    def test_member_of_non_default_raises(self):
        with pytest.raises(RequestError):
            default_group_member("engineering")

    def test_distinct_users_distinct_groups(self):
        assert default_group("a") != default_group("b")


class TestValidation:
    def test_valid_group_ids(self):
        for group_id in ("eng", "team-42", "a.b_c"):
            validate_group_id(group_id)

    @pytest.mark.parametrize("bad", ["", "u:alice", "a/b", "a\x00b"])
    def test_invalid_group_ids(self, bad):
        with pytest.raises(RequestError):
            validate_group_id(bad)

    @pytest.mark.parametrize("bad", ["", "a/b", "a\x00b"])
    def test_invalid_user_ids(self, bad):
        with pytest.raises(RequestError):
            validate_user_id(bad)

    def test_reserved_prefix_blocks_spoofing(self):
        """A regular group must never collide with a default group; otherwise
        creating group "u:bob" would grant its members bob's identity."""
        with pytest.raises(RequestError):
            validate_group_id(default_group("bob"))
