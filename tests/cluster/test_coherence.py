"""The invalidation protocol in isolation: publish, sync, fall back.

Two :class:`CoherenceManager` instances (a publisher and a subscriber)
share one untrusted :class:`CoherenceBoard`, each fronting a stub engine
holding a real :class:`MetadataCache`.  The tests drive the protocol's
happy path and every anomaly class — tampered entry, evicted tail,
counter rewind, reset marker — and assert the subscriber's posture is
always "apply exactly, or discard everything": a Byzantine board costs
cache hits, never serves a stale entry.
"""

from __future__ import annotations

import pytest

from repro.core.cache import MetadataCache
from repro.core.coherence import CoherenceManager
from repro.netsim.coherence import CoherenceBoard
from repro.store.engine import StorageEngine
from tests.support.platform import loaded_enclave, sim_platform

_ROOT_KEY = b"\x07" * 32


class _EngineStub:
    """What CoherenceManager touches on its engine: the cache, the
    released objects awaiting reclaim, the anchor (none here), and the
    real full-discard routine over them."""

    anchor = None

    def __init__(self) -> None:
        self.cache = MetadataCache(capacity_bytes=64 * 1024, epc=sim_platform().epc)
        self._outstanding: dict[str, int] = {}
        self.enclave = loaded_enclave()

    drop_derived_state = StorageEngine.drop_derived_state


def make_pair(capacity: int = 8):
    board = CoherenceBoard(capacity=capacity)
    publisher = CoherenceManager(board, _ROOT_KEY, _EngineStub())
    subscriber = CoherenceManager(board, _ROOT_KEY, _EngineStub())
    return board, publisher, subscriber


def warm(manager: CoherenceManager, *keys: str) -> None:
    for key in keys:
        manager._engine.cache.put("meta", key, b"cached " + key.encode())


class TestApply:
    def test_sync_discards_exactly_the_published_pairs(self):
        board, publisher, subscriber = make_pair()
        warm(subscriber, "/a", "/b", "/c")
        publisher.publish([("meta", "/a"), ("meta", "/c")], "t1")

        subscriber.sync()

        cache = subscriber._engine.cache
        assert cache.contains("meta", "/b")
        assert not cache.contains("meta", "/a")
        assert not cache.contains("meta", "/c")
        stats = subscriber.snapshot()
        assert stats["invalidations_applied"] == 2
        assert stats["full_discards"] == 0
        assert stats["applied_epoch"] == board.epoch == 1

    def test_fast_path_is_a_noop_when_current(self):
        _, _, subscriber = make_pair()
        warm(subscriber, "/a")
        subscriber.sync()
        assert subscriber.snapshot()["syncs"] == 0
        assert subscriber._engine.cache.contains("meta", "/a")

    def test_own_publish_is_already_applied(self):
        board, publisher, _ = make_pair()
        warm(publisher, "/a")
        publisher.publish([("meta", "/b")], "t1")
        publisher.sync()
        # Publishing advanced the applied epoch; the publisher's own
        # write-through cache already reflects the commit it described.
        assert publisher.snapshot()["applied_epoch"] == board.epoch
        assert publisher._engine.cache.contains("meta", "/a")

    def test_dedup_pairs_are_discarded_like_any_other(self):
        """A dedup record is cached like any other record: an entry naming
        it discards exactly that copy, and reads nothing; only a full
        discard drops every record."""
        board, publisher, subscriber = make_pair()
        cache = subscriber._engine.cache
        for name in ("h1", "h2", "h3"):
            cache.put("dedup", name, b"record " + name.encode())
        publisher.publish([("dedup", "h2"), ("meta", "/a"), ("dedup", "h1")], "t1")
        subscriber.sync()
        assert [cache.contains("dedup", name) for name in ("h1", "h2", "h3")] == [False, False, True]
        assert subscriber.snapshot()["invalidations_applied"] == 3
        assert subscriber.snapshot()["full_discards"] == 0
        board._epoch += 1  # no entry behind it: a forced full discard
        subscriber.sync()
        assert not cache.contains("dedup", "h3")
        assert subscriber.snapshot()["full_discards"] == 1


class TestFallback:
    def test_tampered_entry_forces_full_discard(self):
        board, publisher, subscriber = make_pair()
        warm(subscriber, "/a", "/b")
        publisher.publish([("meta", "/a")], "t1")
        # Host-side corruption: flip bytes in the sealed blob.
        board._entries[1] = bytes(b ^ 0xFF for b in board._entries[1])

        subscriber.sync()

        cache = subscriber._engine.cache
        assert len(cache) == 0, "a tampered entry must cost the whole cache"
        stats = subscriber.snapshot()
        assert stats["full_discards"] == 1
        assert stats["invalidations_applied"] == 0
        # The anomaly is consumed: the subscriber lands on the shared
        # epoch and the next sync is the fast path again.
        assert stats["applied_epoch"] == board.epoch
        subscriber.sync()
        assert subscriber.snapshot()["syncs"] == 1

    def test_renumbered_entry_fails_aad_binding(self):
        board, publisher, subscriber = make_pair()
        warm(subscriber, "/a")
        publisher.publish([("meta", "/zzz")], "t1")
        publisher.publish([("meta", "/a")], "t2")
        # Replay epoch 1's (authentic) blob as epoch 2: the AAD binds
        # the epoch number, so this must not decrypt.
        board._entries[2] = board._entries[1]

        subscriber.sync()

        assert subscriber.snapshot()["full_discards"] == 1
        assert len(subscriber._engine.cache) == 0

    def test_lag_past_eviction_forces_full_discard(self):
        board, publisher, subscriber = make_pair(capacity=4)
        warm(subscriber, "/a")
        for i in range(6):  # epochs 1..6; ring keeps only 3..6
            publisher.publish([("meta", f"/k{i}")], f"t{i}")
        assert board.snapshot()["evictions"] == 2

        subscriber.sync()

        stats = subscriber.snapshot()
        assert stats["full_discards"] == 1
        assert stats["applied_epoch"] == board.epoch == 6
        assert len(subscriber._engine.cache) == 0

    def test_counter_rewind_discards_without_advancing(self):
        board, publisher, subscriber = make_pair()
        publisher.publish([("meta", "/a")], "t1")
        subscriber.sync()
        warm(subscriber, "/b")
        board._epoch = 0  # host replays an old board state

        subscriber.sync()

        stats = subscriber.snapshot()
        assert stats["full_discards"] == 1
        assert stats["applied_epoch"] == 1, "a rewind must never move us backwards"
        assert len(subscriber._engine.cache) == 0

    def test_reset_entry_forces_full_discard(self):
        board, publisher, subscriber = make_pair()
        warm(subscriber, "/a")
        publisher.publish_reset("takeover")
        subscriber.sync()
        assert subscriber.snapshot()["full_discards"] == 1
        assert len(subscriber._engine.cache) == 0
        assert subscriber.snapshot()["applied_epoch"] == board.epoch

    def test_reset_drops_the_queued_tail_for_laggards(self):
        board, publisher, subscriber = make_pair()
        publisher.publish([("meta", "/a")], "t1")
        publisher.publish_reset("takeover")
        # The laggard sees a gap at epoch 1 (reset cleared the ring) and
        # lands on the same full-discard posture.
        subscriber.sync()
        assert subscriber.snapshot()["full_discards"] == 1
        assert subscriber.snapshot()["applied_epoch"] == 2


class TestColdStart:
    def test_late_joiner_starts_at_the_board_epoch(self):
        board, publisher, _ = make_pair()
        for i in range(5):
            publisher.publish([("meta", f"/k{i}")], f"t{i}")

        joiner = CoherenceManager(board, _ROOT_KEY, _EngineStub())

        # Empty caches make history vacuously applied: no catch-up scan,
        # no discard, fast-path current from the first serve.
        assert joiner.snapshot()["applied_epoch"] == board.epoch == 5
        joiner.sync()
        stats = joiner.snapshot()
        assert stats["syncs"] == 0
        assert stats["full_discards"] == 0


class TestRace:
    def test_lost_place_race_reseals_against_the_new_epoch(self):
        board, a, b = make_pair()
        # Interleave: both read epoch 0; b publishes first; a's place(1)
        # is refused and a re-seals as epoch 2.
        b.publish([("meta", "/from-b")], "tb")
        a.publish([("meta", "/from-a")], "ta")
        assert board.epoch == 2
        assert a.snapshot()["applied_epoch"] == 2

        fresh = CoherenceManager(board, _ROOT_KEY, _EngineStub())
        fresh._applied = 0  # force a full catch-up scan
        warm(fresh, "/from-a", "/from-b", "/keep")
        fresh.sync()
        cache = fresh._engine.cache
        assert cache.contains("meta", "/keep")
        assert not cache.contains("meta", "/from-a")
        assert not cache.contains("meta", "/from-b")
        assert fresh.snapshot()["full_discards"] == 0

    def test_wrong_key_is_byzantine_not_fatal(self):
        board, publisher, _ = make_pair()
        publisher.publish([("meta", "/a")], "t1")
        stranger = CoherenceManager(board, b"\x08" * 32, _EngineStub())
        stranger._applied = 0
        warm(stranger, "/a")
        stranger.sync()
        assert stranger.snapshot()["full_discards"] == 1
        assert len(stranger._engine.cache) == 0


def test_board_rejects_non_successor_epochs():
    board = CoherenceBoard()
    assert not board.place(2, b"blob")
    assert board.place(1, b"blob")
    assert not board.place(1, b"again")
    assert board.epoch == 1


def test_board_capacity_floor():
    with pytest.raises(ValueError):
        CoherenceBoard(capacity=0)
