"""Monotonic counters: ownership, wear-out, ROTE quorums, failure injection."""

import pytest

from repro.errors import CounterError
from repro.netsim import SimClock
from repro.sgx import MonotonicCounter, RoteCounterService
from repro.sgx.counters import RoteCounterService as Rote
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.enclave import Enclave, ecall
from tests.support.platform import sim_platform


class VendorA(Enclave):
    SIGNER = "vendor-a"

    @ecall
    def noop(self):
        pass


class VendorB(Enclave):
    SIGNER = "vendor-b"

    @ecall
    def noop(self):
        pass


@pytest.fixture()
def enclave():
    e = VendorA()
    sim_platform().load(e)
    return e


@pytest.fixture()
def rival():
    e = VendorB()
    sim_platform().load(e)
    return e


class TestMonotonicCounter:
    def test_increments_are_monotonic(self, enclave):
        service = MonotonicCounter(SimClock(), SgxCostModel())
        service.create(enclave, "c")
        values = [service.increment(enclave, "c") for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]
        assert service.read(enclave, "c") == 5

    def test_foreign_signer_rejected(self, enclave, rival):
        service = MonotonicCounter(SimClock(), SgxCostModel())
        service.create(enclave, "c")
        with pytest.raises(CounterError):
            service.increment(rival, "c")

    def test_unknown_counter(self, enclave):
        service = MonotonicCounter(SimClock(), SgxCostModel())
        with pytest.raises(CounterError):
            service.read(enclave, "nope")

    def test_duplicate_create_rejected(self, enclave):
        service = MonotonicCounter(SimClock(), SgxCostModel())
        service.create(enclave, "c")
        with pytest.raises(CounterError):
            service.create(enclave, "c")

    def test_wear_out(self, enclave):
        costs = SgxCostModel(counter_wear_limit=3)
        service = MonotonicCounter(SimClock(), costs)
        service.create(enclave, "c")
        for _ in range(3):
            service.increment(enclave, "c")
        with pytest.raises(CounterError):
            service.increment(enclave, "c")
        with pytest.raises(CounterError):
            service.read(enclave, "c")

    def test_increment_is_slow(self, enclave):
        clock = SimClock()
        costs = SgxCostModel()
        service = MonotonicCounter(clock, costs)
        service.create(enclave, "c")
        service.increment(enclave, "c")
        assert clock.now() == pytest.approx(costs.counter_increment)


class TestRoteCounter:
    def test_increments_with_full_quorum(self, enclave):
        service = RoteCounterService(SimClock(), SgxCostModel(), replicas=4)
        service.create(enclave, "c")
        assert service.increment(enclave, "c") == 1
        assert service.read(enclave, "c") == 1

    def test_survives_minority_failure(self, enclave):
        service = RoteCounterService(SimClock(), SgxCostModel(), replicas=4)
        service.create(enclave, "c")
        service.increment(enclave, "c")
        service.set_replica_up(0, False)
        assert service.increment(enclave, "c") == 2
        assert service.read(enclave, "c") == 2

    def test_majority_failure_blocks(self, enclave):
        service = RoteCounterService(SimClock(), SgxCostModel(), replicas=4)
        service.create(enclave, "c")
        for index in range(3):
            service.set_replica_up(index, False)
        with pytest.raises(CounterError):
            service.increment(enclave, "c")
        with pytest.raises(CounterError):
            service.read(enclave, "c")

    def test_value_survives_replica_churn(self, enclave):
        service = RoteCounterService(SimClock(), SgxCostModel(), replicas=5)
        service.create(enclave, "c")
        service.increment(enclave, "c")
        service.set_replica_up(0, False)
        service.increment(enclave, "c")
        service.set_replica_up(0, True)  # stale replica rejoins
        service.set_replica_up(4, False)
        assert service.read(enclave, "c") == 2

    def test_no_wear_out(self, enclave):
        service = RoteCounterService(SimClock(), SgxCostModel(counter_wear_limit=2))
        service.create(enclave, "c")
        for _ in range(10):
            service.increment(enclave, "c")
        assert service.read(enclave, "c") == 10

    def test_much_faster_than_sgx_counter(self, enclave):
        costs = SgxCostModel()
        clock = SimClock()
        service = Rote(clock, costs)
        service.create(enclave, "c")
        service.increment(enclave, "c")
        assert clock.now() < costs.counter_increment / 10

    def test_too_few_replicas_rejected(self):
        with pytest.raises(CounterError):
            RoteCounterService(SimClock(), SgxCostModel(), replicas=2)

    def test_foreign_signer_rejected(self, enclave, rival):
        service = RoteCounterService(SimClock(), SgxCostModel())
        service.create(enclave, "c")
        with pytest.raises(CounterError):
            service.increment(rival, "c")
