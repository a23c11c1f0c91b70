"""Model of the Enclave Page Cache (Processor Reserved Memory).

SGX dedicates 128 MiB of RAM to the EPC; enclave working sets beyond that
are transparently paged by the OS with a large performance penalty
(Section II-A).  The model tracks allocations per enclave and charges
page-swap time whenever the resident set exceeds the EPC, using a simple
working-set approximation: every byte allocated beyond the limit costs
one page-out plus one page-in when touched.

SeGShare's design point — a small, constant per-request buffer — makes
this model boring in the happy path, which is precisely the paper's
claim; the test suite demonstrates the penalty by allocating past the
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EnclaveError
from repro.netsim.clock import SimClock
from repro.sgx.costmodel import SgxCostModel

EPC_BYTES = 128 * 1024 * 1024


@dataclass
class EpcStats:
    allocated: int = 0
    peak: int = 0
    page_swaps: int = 0
    #: Portion of ``allocated`` held by long-lived enclave caches (the
    #: metadata cache), as opposed to transient per-request buffers.
    cache_bytes: int = 0


@dataclass
class EpcModel:
    """EPC accounting shared by all enclaves on one platform."""

    clock: SimClock
    costs: SgxCostModel
    capacity: int = EPC_BYTES
    stats: EpcStats = field(default_factory=EpcStats)

    def alloc(self, nbytes: int) -> None:
        """Account an enclave allocation of ``nbytes``.

        Bytes beyond the EPC capacity are immediately charged paging cost:
        the OS must evict resident pages and SGX re-encrypts them.
        """
        if nbytes < 0:
            raise EnclaveError("negative allocation")
        before = self.stats.allocated
        self.stats.allocated += nbytes
        self.stats.peak = max(self.stats.peak, self.stats.allocated)
        overflow = self.stats.allocated - max(before, self.capacity)
        if overflow > 0:
            pages = (overflow + self.costs.page_size - 1) // self.costs.page_size
            self.stats.page_swaps += pages
            self.clock.charge(pages * self.costs.epc_page_swap, account="epc-paging")

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` of enclave memory."""
        if nbytes < 0 or nbytes > self.stats.allocated:
            raise EnclaveError(f"invalid free of {nbytes} (allocated {self.stats.allocated})")
        self.stats.allocated -= nbytes

    def alloc_cache(self, nbytes: int) -> None:
        """Account ``nbytes`` of long-lived cache residency.

        Same paging semantics as :meth:`alloc` — a cache sized past the
        EPC pays swap cost like any other enclave memory — but tracked
        separately so stats can attribute residency to the cache.
        """
        self.alloc(nbytes)
        self.stats.cache_bytes += nbytes

    def free_cache(self, nbytes: int) -> None:
        """Release cache residency accounted via :meth:`alloc_cache`."""
        if nbytes < 0 or nbytes > self.stats.cache_bytes:
            raise EnclaveError(
                f"invalid cache free of {nbytes} (cache holds {self.stats.cache_bytes})"
            )
        self.free(nbytes)
        self.stats.cache_bytes -= nbytes

    def touch(self, nbytes: int) -> None:
        """Charge access cost for a working set of ``nbytes``.

        If the current resident set exceeds the EPC, a proportional share
        of the touched pages miss and must be swapped in.
        """
        if self.stats.allocated <= self.capacity or self.stats.allocated == 0:
            return
        miss_fraction = 1 - self.capacity / self.stats.allocated
        pages = int(miss_fraction * nbytes / self.costs.page_size)
        if pages > 0:
            self.stats.page_swaps += pages
            self.clock.charge(pages * self.costs.epc_page_swap, account="epc-paging")
