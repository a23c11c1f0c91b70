"""The one way tests build the trusted stack below a full deployment.

Production code takes its clock, enclave and engine unconditionally; unit
tests that exercise one component get them here instead of passing
``None``: a minimal :class:`Enclave` loaded on a platform with a serial
:class:`SimClock`, and a journaled :class:`StorageEngine` over it.
"""

from __future__ import annotations

from repro.core.cache import MetadataCache
from repro.core.journal import WriteAheadJournal
from repro.netsim import SimClock
from repro.sgx import SgxPlatform
from repro.sgx.costmodel import DEFAULT_COSTS, SgxCostModel
from repro.sgx.enclave import Enclave
from repro.storage.stores import StoreSet
from repro.store.engine import StorageEngine


def sim_platform(clock: SimClock | None = None, costs: SgxCostModel = DEFAULT_COSTS) -> SgxPlatform:
    """A fresh platform; ``clock`` defaults to a new serial SimClock."""
    return SgxPlatform(clock if clock is not None else SimClock(), costs=costs)


def loaded_enclave(clock: SimClock | None = None, costs: SgxCostModel = DEFAULT_COSTS) -> Enclave:
    """A bare enclave loaded on a fresh :func:`sim_platform`."""
    enclave = Enclave()
    sim_platform(clock, costs).load(enclave)
    return enclave


def engine_for(
    stores: StoreSet,
    enclave: Enclave,
    cache: MetadataCache | None = None,
) -> StorageEngine:
    """The storage engine ``enclave`` would build over ``stores``: journaled."""
    journal = WriteAheadJournal(stores, bytes(32))
    return StorageEngine(stores, enclave, journal=journal, cache=cache)
