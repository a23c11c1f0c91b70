"""Shard-count invariance of the storage engine.

Property: the number of untrusted backends is invisible to clients.  The
same seeded request trace run against a single shared backend, a 3-shard
router, and an 8-shard router produces identical per-request responses
and identical final logical state, and each server's rollback guards
verify against the storage its router produced.  Placement is the host's
concern (``repro.store.ShardedStore`` routes by public HMAC); nothing
inside the enclave knows or cares how many shards exist.

The crash variant kills the enclave before one of its effects while the
trace runs over the 8-shard router.  A commit's buffered puts fan out
across shards, so a crash mid-commit strands a *cross-shard* partial
write — exactly what re-applying the redo record must finish.  After
restart the recovered state must equal a serial replay of the completed
prefix on a single backend: cross-shard atomicity, and invariance again.
"""

from __future__ import annotations

import random

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed
from repro.faults import FaultPlan, faulty_stores
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage import InMemoryStore, StoreSet
from tests.support.schedules import (
    USERS,
    apply_descriptor,
    logical_state,
    prime,
    random_descriptor,
)

#: One CA for the whole module — RSA keygen dominates setup otherwise.
_CA = CertificateAuthority(key_bits=1024)

SEEDS = range(6)
TRACE_LEN = 24


def store_variants() -> dict[str, StoreSet]:
    return {
        "one-backend": StoreSet.over(InMemoryStore()),
        "three-shards": StoreSet.sharded([InMemoryStore() for _ in range(3)]),
        "eight-shards": StoreSet.sharded([InMemoryStore() for _ in range(8)]),
    }


def build_server(stores: StoreSet) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        metadata_cache_bytes=256 * 1024,
    )
    return SeGShareServer(azure_wan_env(), _CA.public_key, stores=stores, options=options)


def make_trace(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [
        random_descriptor(rng, rng.choice(USERS), nonce) for nonce in range(TRACE_LEN)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_count_is_invisible(seed):
    trace = make_trace(seed)
    runs: dict[str, tuple[SeGShareServer, list[str]]] = {}
    for name, stores in store_variants().items():
        server = build_server(stores)
        prime(server.enclave.handler)
        results = [apply_descriptor(server.enclave.handler, desc) for desc in trace]
        runs[name] = (server, results)

    baseline_server, baseline_results = runs["one-backend"]
    baseline_state = logical_state(baseline_server)
    for name, (server, results) in runs.items():
        assert results == baseline_results, f"seed {seed}: {name} responses diverge"
        assert logical_state(server) == baseline_state, (
            f"seed {seed}: {name} final state diverges"
        )
        # The guard set must stand on its own against the storage this
        # router produced (key-dependent, so self-verified).
        server.enclave.guard.verify_restored_state()

    # The property must not hold vacuously: the sharded runs really did
    # spread objects over multiple backends.
    for name in ("three-shards", "eight-shards"):
        stats = runs[name][0].stores.router.stats()
        assert sum(1 for count in stats["objects"] if count) >= 2, (
            f"seed {seed}: {name} kept everything on one shard"
        )


class TestCrashMidCommitOnShardedStore:
    """Redo-record replay restores cross-shard atomicity."""

    def _primed(self) -> tuple[SeGShareServer, FaultPlan]:
        plan = FaultPlan()
        server = build_server(faulty_stores(store_variants()["eight-shards"], plan))
        plan.attach_platform(server.platform)
        prime(server.enclave.handler)
        return server, plan

    def _count_steps(self, seed: int) -> int:
        server, plan = self._primed()
        before = plan.effects
        for desc in make_trace(seed):
            apply_descriptor(server.enclave.handler, desc)
        return plan.effects - before

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_recovers_to_trace_prefix(self, seed):
        steps = self._count_steps(seed)
        if steps == 0:
            pytest.skip("trace performed no journaled mutation")
        step = random.Random(seed).randrange(steps)

        server, plan = self._primed()
        plan.crash_after_effects(step)

        trace = make_trace(seed)
        completed: list[tuple] = []
        with pytest.raises(EnclaveCrashed):
            for desc in trace:
                apply_descriptor(server.enclave.handler, desc)
                completed.append(desc)  # only reached if the op finished
        plan.detach()

        server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        recovered = logical_state(server)

        # Atomicity and invariance at once: the interrupted request either
        # vanished entirely (crash before the commit point — nothing of it
        # reached a shard) or fully applied (crash after it — the record's
        # re-apply finished its cross-shard writes); the recovered sharded
        # state must equal a clean
        # single-backend replay of one of those two prefixes.
        def replay(prefix: list[tuple]) -> dict:
            witness = build_server(store_variants()["one-backend"])
            prime(witness.enclave.handler)
            for desc in prefix:
                apply_descriptor(witness.enclave.handler, desc)
            return logical_state(witness)

        interrupted = trace[len(completed)]
        assert recovered in (
            replay(completed),
            replay(completed + [interrupted]),
        ), f"seed {seed}, step {step}: crash was not atomic across shards"
