"""Placement: rendezvous hashing, affinity mapping, minimal movement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import placement
from repro.cluster.placement import (
    PlacementRing,
    _score,
    path_affinity,
    request_affinity,
)
from repro.core.requests import Op, Request


class TestAffinity:
    def test_path_ops_route_by_top_segment(self):
        for op, args in [
            (Op.GET, ("/eng/spec.txt",)),
            (Op.PUT_DIR, ("/eng/sub/",)),
            (Op.REMOVE, ("/eng/old",)),
            (Op.STAT, ("/eng",)),
        ]:
            assert request_affinity("alice", Request(op=op, args=args)) == "path:eng"

    def test_move_routes_by_source(self):
        request = Request(op=Op.MOVE, args=("/eng/a", "/hr/b"))
        assert request_affinity("alice", request) == "path:eng"

    def test_group_admin_routes_by_group(self):
        assert (
            request_affinity("alice", Request(op=Op.LIST_MEMBERS, args=("eng",)))
            == "group:eng"
        )
        assert (
            request_affinity("alice", Request(op=Op.ADD_USER, args=("bob", "eng")))
            == "group:eng"
        )
        assert (
            request_affinity("alice", Request(op=Op.RMV_USER, args=("bob", "eng")))
            == "group:eng"
        )

    def test_user_scoped_ops_route_by_user(self):
        assert (
            request_affinity("alice", Request(op=Op.MY_GROUPS, args=()))
            == "user:alice"
        )

    def test_root_path(self):
        assert path_affinity("/") == "path:/"
        assert path_affinity("/f") == "path:f"


class TestRing:
    def test_owner_is_deterministic(self):
        a = PlacementRing(["r0", "r1", "r2"])
        b = PlacementRing(["r2", "r0", "r1"])  # insertion order irrelevant
        for key in [f"path:d{i}" for i in range(64)]:
            assert a.owner(key) == b.owner(key)

    def test_all_members_own_something(self):
        ring = PlacementRing(["r0", "r1", "r2"])
        owners = {ring.owner(f"path:d{i}") for i in range(256)}
        assert owners == {"r0", "r1", "r2"}

    def test_removal_moves_only_the_evicted_members_keys(self):
        ring = PlacementRing(["r0", "r1", "r2"])
        keys = [f"group:g{i}" for i in range(256)]
        before = {key: ring.owner(key) for key in keys}
        ring.remove("r1")
        for key in keys:
            after = ring.owner(key)
            if before[key] != "r1":
                assert after == before[key], "a surviving member's key moved"
            else:
                assert after in {"r0", "r2"}

    def test_join_moves_only_keys_it_wins(self):
        ring = PlacementRing(["r0", "r1"])
        keys = [f"path:d{i}" for i in range(256)]
        before = {key: ring.owner(key) for key in keys}
        ring.add("r2")
        moved = [key for key in keys if ring.owner(key) != before[key]]
        assert moved, "new member attracted no keys at all"
        assert all(ring.owner(key) == "r2" for key in moved)

    def test_add_remove_idempotent(self):
        ring = PlacementRing(["r0"])
        assert not ring.add("r0")
        assert ring.add("r1")
        assert ring.remove("r1")
        assert not ring.remove("r1")

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            PlacementRing().owner("path:x")


#: A ring edit: add or remove one of six members.
_EDITS = st.lists(st.tuples(st.booleans(), st.sampled_from([f"r{i}" for i in range(6)])), max_size=25)
_AFFINITIES = st.lists(st.sampled_from([f"path:d{i}" for i in range(8)] + ["group:eng", "user:bob"]), min_size=1)


@settings(max_examples=100, deadline=None)
@given(_EDITS, _AFFINITIES, st.integers(1, 5))
def test_the_memoized_owner_is_the_rendezvous_maximum(edits, affinities, memo):
    """After any add/remove sequence, with owners asked between the edits
    (so stale memo entries would show), every owner is the member with
    the highest score — also when the memo's bound makes it start over."""
    saved, placement.OWNER_MEMO = placement.OWNER_MEMO, memo
    try:
        ring = PlacementRing(["r0"])
        members = {"r0"}
        for add, name in edits:
            (ring.add if add else ring.remove)(name)
            (members.add if add else members.discard)(name)
            for affinity in affinities:
                if members:
                    assert ring.owner(affinity) == max(members, key=lambda member: _score(member, affinity))
    finally:
        placement.OWNER_MEMO = saved
