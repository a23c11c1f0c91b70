"""EPC model: allocation accounting and paging penalties."""

import pytest

from repro.errors import EnclaveError
from repro.netsim import SimClock
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.epc import EPC_BYTES, EpcModel


def make_epc(clock=None, capacity=EPC_BYTES):
    return EpcModel(clock=clock if clock is not None else SimClock(), costs=SgxCostModel(), capacity=capacity)


class TestAllocation:
    def test_within_capacity_is_free(self):
        clock = SimClock()
        epc = make_epc(clock)
        epc.alloc(64 * 1024 * 1024)
        assert clock.now() == 0
        assert epc.stats.page_swaps == 0

    def test_peak_tracked(self):
        epc = make_epc()
        epc.alloc(1000)
        epc.free(500)
        epc.alloc(100)
        assert epc.stats.peak == 1000
        assert epc.stats.allocated == 600

    def test_negative_alloc_rejected(self):
        with pytest.raises(EnclaveError):
            make_epc().alloc(-1)

    def test_over_free_rejected(self):
        epc = make_epc()
        epc.alloc(10)
        with pytest.raises(EnclaveError):
            epc.free(11)


class TestPaging:
    def test_overflow_charges_paging(self):
        clock = SimClock()
        epc = make_epc(clock, capacity=4096 * 10)
        epc.alloc(4096 * 12)  # 2 pages over
        assert epc.stats.page_swaps == 2
        assert clock.now() == pytest.approx(2 * SgxCostModel().epc_page_swap)

    def test_touch_below_capacity_is_free(self):
        clock = SimClock()
        epc = make_epc(clock, capacity=4096 * 10)
        epc.alloc(4096 * 5)
        epc.touch(4096 * 5)
        assert clock.now() == 0

    def test_touch_above_capacity_charges_misses(self):
        clock = SimClock()
        epc = make_epc(clock, capacity=4096 * 10)
        epc.alloc(4096 * 20)
        swaps_after_alloc = epc.stats.page_swaps
        epc.touch(4096 * 10)
        assert epc.stats.page_swaps > swaps_after_alloc

    def test_segshare_design_point_stays_cold(self):
        # The paper's design: constant small per-request buffers keep the
        # working set far below the EPC, so paging never triggers.
        clock = SimClock()
        epc = make_epc(clock)
        for _ in range(1000):
            epc.alloc(64 * 1024)
            epc.touch(64 * 1024)
            epc.free(64 * 1024)
        assert epc.stats.page_swaps == 0
        assert clock.now() == 0
