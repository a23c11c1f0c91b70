"""Path-granular RW locks: conflict rules, virtual-time waits, lock plans."""

from __future__ import annotations

import random

import pytest

from repro.core.locks import (
    GROUP_NS,
    QUOTA_KEY,
    LockManager,
    LockSpec,
    member_key,
    plan_for_request,
    plan_for_upload,
)
from repro.core.requests import Op, Request
from repro.netsim import ParallelClock, SimClock

from tests.support.calls import python_calls


def overlap_wait(first_specs, second_specs, hold=1.0):
    """Run two overlapping acquisitions and return the second's lock wait.

    Both "requests" arrive at t=0; the first holds its locks for
    ``hold`` virtual seconds.  A conflict shows up as the second track
    waiting until the first's release.
    """
    clock = ParallelClock()
    manager = LockManager(clock=clock)
    with clock.track("first", start=0.0):
        with manager.acquire(first_specs):
            clock.charge(hold, "work")
    with clock.track("second", start=0.0) as track:
        with manager.acquire(second_specs):
            clock.charge(0.1, "work")
    return track.accounts.get("lock-wait", 0.0)


class TestConflictRules:
    def test_read_read_no_conflict(self):
        assert overlap_wait([LockSpec("/a/f")], [LockSpec("/a/f")]) == 0.0

    def test_write_write_same_path_conflicts(self):
        wait = overlap_wait([LockSpec("/a/f", write=True)], [LockSpec("/a/f", write=True)])
        assert wait == pytest.approx(1.0)

    def test_read_blocks_writer(self):
        wait = overlap_wait([LockSpec("/a/f")], [LockSpec("/a/f", write=True)])
        assert wait == pytest.approx(1.0)

    def test_writer_blocks_reader(self):
        wait = overlap_wait([LockSpec("/a/f", write=True)], [LockSpec("/a/f")])
        assert wait == pytest.approx(1.0)

    def test_disjoint_paths_no_conflict(self):
        assert (
            overlap_wait([LockSpec("/a/f", write=True)], [LockSpec("/b/f", write=True)])
            == 0.0
        )

    def test_subtree_write_blocks_descendant_read(self):
        wait = overlap_wait([LockSpec("/a/", write=True, subtree=True)], [LockSpec("/a/d/f")])
        assert wait == pytest.approx(1.0)

    def test_descendant_write_blocks_subtree_writer(self):
        wait = overlap_wait([LockSpec("/a/d/f", write=True)], [LockSpec("/a/", write=True, subtree=True)])
        assert wait == pytest.approx(1.0)

    def test_subtree_read_blocks_descendant_write(self):
        wait = overlap_wait([LockSpec("/a/", subtree=True)], [LockSpec("/a/d/f", write=True)])
        assert wait == pytest.approx(1.0)

    def test_subtree_read_allows_descendant_read(self):
        assert (
            overlap_wait([LockSpec("/a/", subtree=True)], [LockSpec("/a/d/f")]) == 0.0
        )

    def test_sibling_subtrees_no_conflict(self):
        wait = overlap_wait(
            [LockSpec("/a/", write=True, subtree=True)],
            [LockSpec("/b/", write=True, subtree=True)],
        )
        assert wait == 0.0

    def test_prefix_is_segment_wise(self):
        """"/ab" is not inside the subtree of "/a"."""
        assert (
            overlap_wait([LockSpec("/a", write=True, subtree=True)], [LockSpec("/ab", write=True)])
            == 0.0
        )


class TestManagerBehaviour:
    def test_serial_clock_never_waits(self):
        """On a serial clock every release is in the past: the statistics
        count, and nothing but the work lands on the clock it was given."""
        clock = SimClock()
        manager = LockManager(clock)
        with manager.write("/a", subtree=True):
            clock.charge(1.0, "work")
        with manager.read("/a"):
            pass
        assert manager.stats.acquisitions == 2
        assert manager.stats.contended == 0
        assert clock.now() == 1.0

    def test_stats_counting(self):
        clock = ParallelClock()
        manager = LockManager(clock=clock)
        with clock.track("a", start=0.0):
            with manager.write("/f"):
                clock.charge(2.0, "work")
        with clock.track("b", start=0.0):
            with manager.read("/f"):
                pass
        assert manager.stats.acquisitions == 2
        assert manager.stats.write_locks == 1
        assert manager.stats.read_locks == 1
        assert manager.stats.contended == 1
        assert manager.stats.wait_seconds == pytest.approx(2.0)

    def test_whole_set_taken_atomically(self):
        """2PL: the set's start is the max conflicting release, so a
        request never observes state between two of its locks."""
        clock = ParallelClock()
        manager = LockManager(clock=clock)
        with clock.track("holder", start=0.0):
            with manager.write("/b"):
                clock.charge(3.0, "work")
        with clock.track("claimant", start=0.0) as track:
            with manager.acquire([LockSpec("/a", write=True), LockSpec("/b", write=True)]):
                clock.charge(0.1, "work")
        # Waited for /b before touching *either* path.
        assert track.accounts["lock-wait"] == pytest.approx(3.0)

    def test_serial_resource_serializes(self):
        clock = ParallelClock()
        manager = LockManager(clock=clock)
        with clock.track("a", start=0.0):
            with manager.serial("journal-commit", account="commit-wait"):
                clock.charge(1.0, "commit")
        with clock.track("b", start=0.0) as track:
            with manager.serial("journal-commit", account="commit-wait"):
                clock.charge(1.0, "commit")
        assert track.accounts["commit-wait"] == pytest.approx(1.0)

    def test_shards_partition_contention(self):
        clock = ParallelClock()
        manager = LockManager(clock=clock)
        with clock.track("a", start=0.0):
            with manager.shard("rb-node", 3):
                clock.charge(1.0, "guard")
        with clock.track("b", start=0.0) as same:
            with manager.shard("rb-node", 3 + 16):  # same bucket mod 16
                clock.charge(1.0, "guard")
        with clock.track("c", start=0.0) as other:
            with manager.shard("rb-node", 4):
                clock.charge(1.0, "guard")
        assert same.accounts["guard-shard-wait"] == pytest.approx(1.0)
        assert "guard-shard-wait" not in other.accounts


class TestLockPlans:
    def test_every_plan_reads_member_list(self):
        for op in Op:
            request = Request(op=op, args=("/p/f",))
            specs = plan_for_request("alice", request)
            assert LockSpec(member_key("alice")) in specs

    def test_get_takes_read_lock(self):
        specs = plan_for_request("alice", Request(op=Op.GET, args=("/p/f",)))
        assert LockSpec("/p/f") in specs
        assert not any(s.write for s in specs)

    def test_put_dir_write_locks_path_and_parent(self):
        specs = plan_for_request("alice", Request(op=Op.PUT_DIR, args=("/p/d/",)))
        assert LockSpec("/p/d/", write=True) in specs
        assert LockSpec("/p/", write=True) in specs

    def test_remove_takes_subtree_and_quota(self):
        specs = plan_for_request(
            "alice", Request(op=Op.REMOVE, args=("/p/d/",)), quota=True
        )
        assert LockSpec("/p/d/", write=True, subtree=True) in specs
        assert LockSpec("/p/", write=True) in specs
        assert LockSpec(QUOTA_KEY, write=True) in specs

    def test_move_locks_both_subtrees(self):
        specs = plan_for_request("alice", Request(op=Op.MOVE, args=("/a/x", "/b/y")))
        assert LockSpec("/a/x", write=True, subtree=True) in specs
        assert LockSpec("/b/y", write=True, subtree=True) in specs
        assert LockSpec("/a/", write=True) in specs
        assert LockSpec("/b/", write=True) in specs

    def test_acl_change_locks_subtree(self):
        """Inheritance makes an ACL change visible below the path."""
        specs = plan_for_request(
            "alice", Request(op=Op.SET_PERM, args=("/p/", "eng", "r"))
        )
        assert LockSpec("/p/", write=True, subtree=True) in specs

    def test_group_admin_locks_namespace(self):
        specs = plan_for_request("alice", Request(op=Op.ADD_USER, args=("bob", "eng")))
        assert LockSpec(GROUP_NS, write=True, subtree=True) in specs

    def test_group_admin_conflicts_with_any_member_read(self):
        """The namespace subtree write covers every member-list key."""
        admin = plan_for_request("alice", Request(op=Op.RMV_USER, args=("bob", "eng")))
        wait = overlap_wait(admin, [LockSpec(member_key("bob"))])
        assert wait == pytest.approx(1.0)

    def test_malformed_path_still_produces_a_plan(self):
        specs = plan_for_request("alice", Request(op=Op.PUT_DIR, args=("not-a-path",)))
        assert LockSpec("not-a-path", write=True) in specs  # validation fails later

    def test_root_remove_has_no_parent_lock(self):
        specs = plan_for_request("alice", Request(op=Op.REMOVE, args=("/",)))
        assert LockSpec("/", write=True, subtree=True) in specs

    def test_upload_plan(self):
        specs = plan_for_upload("alice", "/p/f", quota=True)
        assert LockSpec(member_key("alice")) in specs
        assert LockSpec("/p/f", write=True) in specs
        assert LockSpec("/p/", write=True) in specs
        assert LockSpec(QUOTA_KEY, write=True) in specs

    def test_disjoint_uploads_do_not_conflict(self):
        wait = overlap_wait(
            plan_for_upload("alice", "/a/f"), plan_for_upload("bob", "/b/f")
        )
        assert wait == 0.0

    def test_same_parent_uploads_conflict(self):
        wait = overlap_wait(
            plan_for_upload("alice", "/shared/f1"), plan_for_upload("bob", "/shared/f2")
        )
        assert wait == pytest.approx(1.0)


# -- the indexed lookup against the scan it replaced -----------------------------
#
# `_wait_for` used to walk every recorded path.  That scan is kept here,
# verbatim, as the reference: the index may only change which records are
# *looked at*, never the wait that comes out.


def _covers(root: str, path: str) -> bool:
    """True if the subtree rooted at ``root`` contains ``path``."""
    if root == path:
        return True
    prefix = root if root.endswith("/") else root + "/"
    return path.startswith(prefix)


def reference_wait(paths, spec: LockSpec) -> float:
    """Until when must ``spec``'s acquisition wait?  0.0 if free."""
    wait = 0.0
    for path, rec in paths.items():
        same = path == spec.path
        ours_covers = spec.subtree and _covers(spec.path, path)
        theirs_covers = _covers(path, spec.path)
        if same or ours_covers:
            # Plain locks recorded at `path` lie inside our scope.
            if spec.write:
                wait = max(wait, rec.read_release, rec.write_release)
            else:
                wait = max(wait, rec.write_release)
        if same or ours_covers or theirs_covers:
            # Subtree locks recorded at `path` overlap our scope.
            if spec.write:
                wait = max(wait, rec.subtree_read_release, rec.subtree_write_release)
            else:
                wait = max(wait, rec.subtree_write_release)
    return wait


def _path_pool(rng: random.Random) -> list[str]:
    """Nested paths in file and directory form, string-prefix siblings
    that are not segment prefixes, and the malformed shapes a lock plan
    can be handed (plans run before validation)."""
    segments = ["a", "ab", "a.b", "b", "0", "\x00", "é"]
    pool = {"", "/", "//", "a", "a/", "a/b", "ab", "/a//b", "/a//", "//a", GROUP_NS, QUOTA_KEY}
    pool |= {GROUP_NS[:-1], member_key("alice"), member_key("al"), member_key("alice/x")}
    for _ in range(150):
        path = "/" + "/".join(rng.choice(segments) for _ in range(rng.randint(1, 4)))
        pool |= {path, path + "/"}
    return sorted(pool)


@pytest.mark.parametrize("seed", [1, 2])
def test_indexed_lookup_equals_the_full_scan(seed):
    rng = random.Random(seed)
    pool = _path_pool(rng)
    manager = LockManager(ParallelClock())
    for step in range(12_000):
        spec = LockSpec(rng.choice(pool), write=rng.random() < 0.5, subtree=rng.random() < 0.3)
        assert manager._wait_for(spec) == reference_wait(manager._paths, spec), (step, spec)
        # Release times arrive out of order on a ParallelClock; ties happen.
        manager._release(spec, float(rng.randint(1, 4000)))
    assert manager._sorted == sorted(manager._paths)
    assert len(manager._paths) > 150


def test_plain_acquisition_cost_does_not_follow_the_table_size():
    """Calls, not seconds: one GET-shaped acquisition costs the same with
    100 and with 10 000 recorded paths."""

    def cost(recorded: int) -> int:
        manager = LockManager(clock=ParallelClock())
        for i in range(recorded):
            with manager.write(f"/home/u{i % 97}/d{i}/f"):
                pass
        specs = [LockSpec(member_key("alice")), LockSpec("/home/u5/d5/f")]

        def acquire():
            with manager.acquire(specs):
                pass

        return python_calls(acquire)

    assert abs(cost(10_000) - cost(100)) <= 2
