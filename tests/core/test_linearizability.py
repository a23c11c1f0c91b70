"""Linearizability of the concurrent request pipeline.

Property: for any seeded multi-client schedule run through the parallel
pipeline (tracks, worker pool, path locks), there exists a serial order
— the driver's global arrival order, which is also its execution order —
such that a fresh server applying the requests serially reaches the
*same logical state* and returns the *same per-request results*.

Logical state means the decrypted view: the directory tree, content
hashes, ACL contents, and group membership.  Byte-for-byte storage
comparison is impossible on purpose (randomized encryption, per-server
root keys), and the Merkle/guard state is key-dependent too — instead
the concurrent server's guard must verify its own restored state, which
pins the guard set to the storage it protects.

The crash variant kills the enclave before one of its effects *inside a
lock-held journaled batch*, restarts, and requires the recovered state
to equal a serial run of exactly the requests that completed before the
crash: the interrupted request vanishes atomically, and the locks it
held vanish with the enclave (locks are enclave-memory-only —
docs/FAULTS.md).
"""

from __future__ import annotations

import random

import pytest

from repro.bench.concurrency import ConcurrentDriver, parallel_env
from repro.core.enclave_app import SeGShareOptions
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed
from repro.faults import FaultPlan
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.stores import StoreSet
from tests.support.explorer import under_plan
from tests.support.schedules import (
    USERS,
    apply_descriptor,
    logical_state,
    prime,
    random_descriptor,
)

#: One CA for the whole module — RSA keygen dominates setup otherwise.
_CA = CertificateAuthority(key_bits=1024)

SEEDS = 100
OPS_PER_CLIENT = 4


def build_server(parallel: bool, stores: StoreSet | None = None) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        metadata_cache_bytes=256 * 1024,
        switchless_workers=4,
    )
    env = parallel_env() if parallel else azure_wan_env()
    return SeGShareServer(env, _CA.public_key, stores=stores, options=options)


def make_schedule(seed: int) -> list[list[tuple]]:
    rng = random.Random(seed)
    return [
        [random_descriptor(rng, USERS[c], c * 100 + k) for k in range(OPS_PER_CLIENT)]
        for c in range(len(USERS))
    ]


def run_concurrent(seed: int):
    """The seeded schedule through the parallel pipeline.

    Returns (server, executed, results): ``executed`` is the global
    execution order (== arrival order), the serial witness the property
    compares against.
    """
    server = build_server(parallel=True)
    prime(server.enclave.handler)
    schedule = make_schedule(seed)
    executed: list[tuple] = []
    results: list[str] = []

    def thunk_for(desc: tuple):
        def thunk():
            executed.append(desc)
            results.append(apply_descriptor(server.enclave.handler, desc))

        return thunk

    clients = [[thunk_for(desc) for desc in stream] for stream in schedule]
    driver = ConcurrentDriver(server)
    result = driver.run(clients)
    return server, executed, results, result


def run_serial(executed: list[tuple]):
    server = build_server(parallel=False)
    prime(server.enclave.handler)
    results = [apply_descriptor(server.enclave.handler, desc) for desc in executed]
    return server, results


@pytest.mark.parametrize("chunk", range(10))
def test_concurrent_equals_some_serial_order(chunk):
    """SEEDS seeded schedules, 10 per pytest case: concurrent result ==
    the serial witness run, for responses and final logical state."""
    overlapped = 0
    grouped = 0
    for seed in range(chunk * (SEEDS // 10), (chunk + 1) * (SEEDS // 10)):
        server, executed, results, drv = run_concurrent(seed)
        assert len(executed) == len(USERS) * OPS_PER_CLIENT
        serial_server, serial_results = run_serial(executed)
        assert results == serial_results, f"seed {seed}: responses diverge"
        assert logical_state(server) == logical_state(serial_server), (
            f"seed {seed}: final states diverge"
        )
        # The guard set must stand on its own against the storage the
        # concurrent run produced (key-dependent, so self-verified).
        server.enclave.guard.verify_restored_state()
        if drv.busy_seconds > drv.makespan * 1.0001:
            overlapped += 1
        # The serial witness never forms groups (serial clock: every epoch
        # closes at one member); the concurrent run may coalesce freely.
        assert serial_server.enclave.engine.group_commit.stats.max_members == 1
        if server.enclave.engine.group_commit.stats.max_members > 1:
            grouped += 1
    # The property must not hold vacuously: most schedules genuinely
    # overlap requests in virtual time, and the overlap reaches the
    # commit path — some schedules coalesce multi-member epochs.
    assert overlapped >= (SEEDS // 10) // 2
    assert grouped >= 1


class TestCrashDuringConcurrentSchedule:
    """Crash inside a lock-held journaled batch mid-schedule."""

    CRASH_SEEDS = range(8)

    @staticmethod
    def _primed() -> tuple[SeGShareServer, FaultPlan]:
        server, plan = under_plan(lambda stores: build_server(parallel=True, stores=stores))
        prime(server.enclave.handler)
        return server, plan

    def _count_steps(self, seed: int) -> int:
        server, plan = self._primed()
        before = plan.effects
        # Re-run the schedule on this plan-armed server.
        schedule = make_schedule(seed)
        executed: list[tuple] = []
        driver = ConcurrentDriver(server)
        driver.run(
            [
                [
                    (
                        lambda d=desc: (
                            executed.append(d),
                            apply_descriptor(server.enclave.handler, d),
                        )
                    )
                    for desc in stream
                ]
                for stream in schedule
            ]
        )
        return plan.effects - before

    @pytest.mark.parametrize("seed", CRASH_SEEDS)
    def test_crash_recovers_to_serial_prefix(self, seed):
        steps = self._count_steps(seed)
        if steps == 0:
            pytest.skip("schedule performed no journaled mutation")
        step = random.Random(seed).randrange(steps)

        server, plan = self._primed()
        old_locks = server.enclave.locks
        schedule = make_schedule(seed)
        started: list[tuple] = []
        completed: list[tuple] = []

        plan.crash_after_effects(step)

        def thunk_for(desc: tuple):
            def thunk():
                started.append(desc)
                apply_descriptor(server.enclave.handler, desc)
                completed.append(desc)  # only reached if the op finished

            return thunk

        driver = ConcurrentDriver(server)
        with pytest.raises(EnclaveCrashed):
            driver.run(
                [[thunk_for(desc) for desc in stream] for stream in schedule]
            )
        plan.detach()

        server.restart_enclave()
        server.enclave.guard.verify_restored_state()
        # Locks live in enclave memory only: the replacement enclave holds
        # a *fresh* manager with no inherited holders (docs/FAULTS.md).
        assert server.enclave.locks is not old_locks
        assert server.enclave.locks.stats.acquisitions == 0

        # Atomicity: recovered state == serial run of the completed prefix,
        # plus the request the crash interrupted if it died past its commit
        # point (its redo record is rolled forward), never part of it.
        in_flight = started[len(completed):]
        assert len(in_flight) <= 1 and started[: len(completed)] == completed
        prefixes = [completed] + ([completed + in_flight] if in_flight else [])
        serial_states = [logical_state(run_serial(prefix)[0]) for prefix in prefixes]
        assert logical_state(server) in serial_states, (
            f"seed {seed}, step {step}: crash was not atomic"
        )
