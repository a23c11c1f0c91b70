"""Deterministic fault injection for the SeGShare reproduction.

The paper's threat model assumes an *unreliable* untrusted host: storage
can fail transiently, writes can be torn or lost, the network can drop,
duplicate or delay records, and the enclave process can die at any
instruction.  This package makes all of that injectable, on a seeded
schedule, so crash-consistency and retry logic can be tested exhaustively:

* :class:`FaultPlan` — the seeded schedule; one plan drives every wrapper
  so a single seed reproduces a whole failure scenario.
* :class:`FaultyStore` — wraps any :class:`~repro.storage.backends
  .UntrustedStore`.
* :class:`FaultyLink` / :func:`faulty_env` — a ``netsim`` link with
  drop/lose/duplicate/delay faults.
* ``plan.crash_after_effects(k)`` — the one crash: the enclave dies
  before its (k+1)-th external effect (a store mutation, a counter
  increment, a coherence publish), so sweeping k covers every crash state;
  ``plan.attach_platform(platform)`` names the enclaves it kills.

Everything is zero-overhead when unused: no wrapper, no cost.
"""

from __future__ import annotations

from repro.faults.link import FaultyLink, faulty_env
from repro.faults.plan import FaultPlan
from repro.faults.store import FaultyStore
from repro.storage.stores import StoreSet

__all__ = [
    "FaultPlan",
    "FaultyLink",
    "FaultyStore",
    "faulty_env",
    "faulty_stores",
]


def faulty_stores(stores: StoreSet, plan: FaultPlan) -> StoreSet:
    """Wrap all three stores of a :class:`StoreSet` with one plan.

    Store names ``"content"``, ``"group"`` and ``"dedup"`` are reported to
    the plan, so rules can target a single store.
    """
    return StoreSet(
        content=FaultyStore(stores.content, plan, name="content"),
        group=FaultyStore(stores.group, plan, name="group"),
        dedup=FaultyStore(stores.dedup, plan, name="dedup"),
    )
