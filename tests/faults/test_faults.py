"""The fault-injection framework: plans, faulty stores, faulty links."""

from types import SimpleNamespace

import pytest

from repro.errors import EnclaveCrashed, FaultError, NetworkError, RetryPolicy
from repro.faults import FaultPlan, FaultyStore, faulty_env, faulty_stores
from repro.netsim.transport import connection_pair
from repro.sgx.enclave import Enclave
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from tests.support.platform import sim_platform


class TestFaultPlanDeterminism:
    @staticmethod
    def _workload(plan: FaultPlan) -> None:
        store = FaultyStore(InMemoryStore(), plan, name="content")
        for i in range(40):
            try:
                store.put(f"k{i}", bytes([i]) * 8)
            except FaultError:
                pass
            try:
                store.get(f"k{i}")
            except (FaultError, Exception):
                pass

    def test_same_seed_same_events(self):
        runs = []
        for _ in range(2):
            plan = FaultPlan(seed=7).fail_randomly(probability=0.2)
            self._workload(plan)
            runs.append(plan.events)
        assert runs[0] == runs[1]
        assert runs[0], "expected some injected faults at p=0.2 over 80 ops"

    def test_different_seed_different_schedule(self):
        events = []
        for seed in (1, 2):
            plan = FaultPlan(seed=seed).fail_randomly(probability=0.2)
            self._workload(plan)
            events.append(plan.events)
        assert events[0] != events[1]

    def test_limit_caps_random_rule(self):
        plan = FaultPlan(seed=3).fail_randomly(probability=1.0, limit=2)
        self._workload(plan)
        assert len(plan.events) == 2


class TestFaultyStore:
    def test_fail_nth_targets_exact_operation(self):
        plan = FaultPlan().fail_nth(nth=2, op="put", store="content")
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"1")
        with pytest.raises(FaultError):
            store.put("b", b"2")
        store.put("b", b"2")  # one-shot: the third put proceeds
        assert store.get("b") == b"2"

    def test_fail_nth_scoped_to_a_key_counts_only_its_keys(self):
        plan = FaultPlan().fail_nth(nth=2, op="get", key="\x00meta")
        store = FaultyStore(InMemoryStore(), plan, name="content")
        for key in ("/a\x00meta", "/a\x00chunk\x001", "/b\x00meta"):
            store.put(key, b"1")
        assert store.get("/a\x00meta") == store.get("/a\x00chunk\x001") == b"1"
        with pytest.raises(FaultError, match="meta"):
            store.get("/b\x00meta")

    def test_rule_scoped_to_other_store_never_fires(self):
        plan = FaultPlan().fail_nth(nth=1, store="group")
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"1")
        assert store.get("a") == b"1"

    def test_torn_write_persists_half(self):
        plan = FaultPlan().torn_write(nth=1, store="content")
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"0123456789")
        assert store.get("a") == b"01234"

    def test_lost_write_persists_nothing(self):
        plan = FaultPlan().lost_write(nth=1, store="content")
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"vanishes")
        assert not store.exists("a")

    def test_each_ranged_call_can_fault_tear_or_crash(self):
        plan = FaultPlan().fail_nth(nth=1, op="get_range").torn_write(nth=1, op="put_range")
        store = FaultyStore(InMemoryStore(), plan, name="dedup")
        store.put_range("v", 0, [b"0123", b"4567"])
        assert store.get("v") == b"0123"  # torn: half the run persisted
        with pytest.raises(FaultError):
            store.get_range("v", 0, 4)
        assert store.get_range("v", 0, 4) == b"0123"
        plan.lost_write(nth=1, op="put_range")
        store.put_range("v", 4, [b"lost"])
        assert store.get("v") == b"0123"
        platform = sim_platform()
        plan.attach_platform(platform)
        plan.crash_after_effects(0)
        with pytest.raises(EnclaveCrashed):
            store.put_range("v", 4, [b"never"])
        assert [event[:3] for event in plan.events] == [
            ("torn", "dedup", "put_range"), ("error", "dedup", "get_range"),
            ("lost", "dedup", "put_range"), ("crash", "dedup:put_range 'v'", 3),
        ]
        assert store.get("v") == b"0123"  # the crash came before the write

    def test_zero_overhead_passthrough_when_no_rules(self):
        plan = FaultPlan()
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"1")
        store.put("a", b"2")
        store.delete("a")
        assert plan.store_ops == 3
        assert plan.events == []

    def test_faulty_stores_wraps_all_three(self):
        plan = FaultPlan()
        stores = faulty_stores(StoreSet.in_memory(), plan)
        stores.content.put("c", b"1")
        stores.group.put("g", b"1")
        stores.dedup.put("d", b"1")
        assert plan.store_ops == 3


class TestFaultyLink:
    def test_drop_raises_network_error_and_retry_succeeds(self):
        plan = FaultPlan().drop_message(nth=1, direction="up")
        env = faulty_env(plan)
        client, server = connection_pair(env.link)
        with pytest.raises(NetworkError):
            client.send(b"ping")
        client.send(b"ping")
        assert server.recv() == b"ping"

    def test_lost_message_charged_but_not_delivered(self):
        plan = FaultPlan().lose_message(nth=1)
        env = faulty_env(plan)
        client, server = connection_pair(env.link)
        before = env.clock.now()
        client.send(b"ghost")
        assert env.clock.now() > before  # bytes were paid for
        with pytest.raises(NetworkError):
            server.recv()  # nothing arrived

    def test_duplicate_message_delivered_twice(self):
        plan = FaultPlan().duplicate_message(nth=1, copies=2)
        env = faulty_env(plan)
        client, server = connection_pair(env.link)
        client.send(b"echo")
        assert server.recv() == b"echo"
        assert server.recv() == b"echo"

    def test_delay_charges_extra_latency(self):
        plan = FaultPlan().delay_message(seconds=1.5, nth=1)
        slow = faulty_env(plan)
        fast = faulty_env(FaultPlan())
        for env in (slow, fast):
            client, _ = connection_pair(env.link)
            client.send(b"x" * 100)
        delta = slow.clock.now() - fast.clock.now()
        assert delta == pytest.approx(1.5)


class TestCrashpoints:
    """The one crash rule: after k external effects, the next dies before it acts."""

    def test_crash_at_point_kills_loaded_enclave(self):
        class Dummy(Enclave):
            pass

        platform = sim_platform()
        handle = platform.load(Dummy())
        plan = FaultPlan().crash_after_effects(1)
        plan.attach_platform(platform)
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"1")
        with pytest.raises(EnclaveCrashed):
            store.put("b", b"2")
        assert store.inner.exists("a") and not store.inner.exists("b")
        with pytest.raises(EnclaveCrashed):
            handle.call("anything")  # the enclave is dead
        store.put("b", b"2")  # the rule fired once
        plan.detach()
        assert platform.fault_plan is None

    def test_site_prefix_filters(self):
        """Only effects count, from the rule on: reads and earlier effects do not."""
        plan = FaultPlan()
        store = FaultyStore(InMemoryStore(), plan, name="content")
        store.put("a", b"1")
        plan.crash_after_effects(1)
        store.get("a")
        store.get_range("a", 0, 1)
        assert store.exists("a") and list(store.keys()) == ["a"]
        store.delete("a")
        with pytest.raises(EnclaveCrashed):
            store.put("a", b"2")
        assert plan.effects == 3 and not store.inner.exists("a")

    def test_counter_increments_and_coherence_publishes_are_effects(self):
        from repro.core.coherence import CoherenceManager
        from repro.netsim.coherence import CoherenceBoard
        from repro.sgx.counters import MonotonicCounter

        platform = sim_platform()
        enclave = Enclave()
        platform.load(enclave)
        plan = FaultPlan().attach_platform(platform).crash_after_effects(1)
        counter = MonotonicCounter(platform.clock, platform.costs)
        counter.create(enclave, "c")
        assert counter.increment(enclave, "c") == 1
        with pytest.raises(EnclaveCrashed):
            counter.increment(enclave, "c")
        assert counter.read(enclave, "c") == 1
        board = CoherenceBoard()
        engine = SimpleNamespace(enclave=enclave, cache=None)
        plan.crash_after_effects(0)
        with pytest.raises(EnclaveCrashed):
            CoherenceManager(board, bytes(32), engine).publish([("meta", "/a")], "t")
        assert board.epoch == 0
        assert [event[1] for event in plan.events] == ["counter:increment", "coherence:place"]


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(attempts=8, base_delay=0.1, max_delay=1.0, multiplier=2.0)
        delays = [policy.delay(n) for n in range(1, 8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert all(d == 1.0 for d in delays[4:])

    def test_jitter_is_seeded_and_bounded(self):
        import random

        policy = RetryPolicy(base_delay=0.1, jitter=0.1)
        a = [policy.delay(1, random.Random(5)) for _ in range(3)]
        b = [policy.delay(1, random.Random(5)) for _ in range(3)]
        assert a == b
        for delay in a:
            assert 0.09 <= delay <= 0.11

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)
