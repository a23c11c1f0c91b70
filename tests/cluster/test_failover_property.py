"""Failover linearizability: crash any replica mid-request, lose nothing.

Property: for any seeded multi-client schedule routed through a
3-replica cluster, killing any single replica before any of its
effects mid-request (tests/support/explorer.py) yields per-request responses and a final logical state
identical to a serial no-crash witness run on a single server — the
in-flight request either committed before the crash (the front door
synthesizes its OK from the journal stamp) or rolled back atomically
and was transparently re-executed on a survivor.  Afterwards the
crashed replica restarts, re-joins, and serves reads with anchors
verified fresh against the quorum.

The schedule machinery is tests/support/schedules.py; the witness is a
plain single server running the cluster's option profile.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterDriver, build_cluster, cluster_options
from repro.core.server import SeGShareServer
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from tests.support.explorer import EFFECT_CLASSES, arm
from tests.support.schedules import (
    USERS,
    apply_descriptor,
    logical_state,
    prime,
    random_descriptor,
)

#: One CA for the whole module — RSA keygen dominates setup otherwise.
_CA = CertificateAuthority(key_bits=1024)

#: The issue's floor is 50 seeded schedules; chunked for pytest -x ergonomics.
SEEDS = 60
CHUNKS = 6
OPS_PER_CLIENT = 4
REPLICAS = 3


def build_witness() -> SeGShareServer:
    """A serial single-server witness with the cluster's option profile."""
    return SeGShareServer(
        azure_wan_env(), _CA.public_key, options=cluster_options()
    )


def make_schedule(seed: int) -> list[list[tuple]]:
    rng = random.Random(seed)
    return [
        [random_descriptor(rng, USERS[c], c * 100 + k) for k in range(OPS_PER_CLIENT)]
        for c in range(len(USERS))
    ]


def run_cluster_schedule(seed: int, crash: tuple[str, int] | None = None):
    """Build a cluster, prime it, run the seeded schedule through the
    front door with every replica under a plan of its own; ``crash``
    (victim, k) kills the victim after k of its effects.  Returns
    (deployment, executed, results, each replica's effects)."""
    deployment = build_cluster(
        replicas=REPLICAS, parallel=True, ca=_CA, seed=seed
    )
    prime(deployment.server("r0").enclave.handler)
    plans = {name: arm(deployment.server(name)) for name in sorted(deployment.servers)}
    starts = {name: len(plan.labels) for name, plan in plans.items()}
    if crash is not None:
        plans[crash[0]].crash_after_effects(crash[1])
    schedule = make_schedule(seed)
    executed: list[tuple] = []
    results: list[str] = []
    cluster = deployment.cluster

    def thunk_for(desc: tuple):
        def thunk(arrival: float):
            executed.append(desc)
            results.append(apply_descriptor(cluster, desc, arrival=arrival))

        return thunk

    ClusterDriver(cluster).run(
        [[thunk_for(desc) for desc in stream] for stream in schedule]
    )
    for plan in plans.values():
        plan.detach()
    return deployment, executed, results, {name: plan.labels[starts[name]:] for name, plan in plans.items()}


def run_witness(executed: list[tuple]):
    server = build_witness()
    prime(server.enclave.handler)
    results = [apply_descriptor(server.enclave.handler, desc) for desc in executed]
    return server, results


def check_seed(seed: int, site: str = "journal:") -> str:
    """One property iteration; returns what the seed exercised."""
    # Counting pass: which of the victim's effects are of the ``site``
    # class?  The victim is the seed's replica, or the next one that makes
    # such an effect: a replica that only answers reads has one crash
    # state, after the schedule.
    effects = run_cluster_schedule(seed)[3]
    for offset in range(REPLICAS):
        victim = f"r{(seed + offset) % REPLICAS}"
        steps = [k for k, label in enumerate(effects[victim]) if EFFECT_CLASSES[site](label)]
        if steps:
            break
    else:
        return "no-site-work-on-victim"
    step = random.Random(seed).choice(steps)

    # Crash pass: the victim dies before the chosen effect, mid-request.
    deployment, executed, results, _ = run_cluster_schedule(seed, (victim, step))
    cluster = deployment.cluster
    assert len(executed) == len(USERS) * OPS_PER_CLIENT
    assert len(results) == len(executed), "a client request failed outright"
    assert cluster.stats()["failovers"] >= 1, "the crash never fired"
    assert victim not in cluster.membership.ring

    # Witness: the same execution order, serially, no crash.
    witness, witness_results = run_witness(executed)
    assert results == witness_results, f"seed {seed}, step {step}: responses diverge"

    survivor = deployment.server(cluster.membership.ring.members[0])
    assert logical_state(survivor) == logical_state(witness), (
        f"seed {seed}, step {step}: final states diverge"
    )
    survivor.enclave.guard.verify_restored_state()

    # The crashed replica restarts, re-joins, and serves verified-fresh.
    crashed = deployment.server(victim)
    crashed.restart_enclave()
    assert cluster.admit(victim, crashed)
    assert crashed.handle.call("cluster_verify_anchor") is True
    assert logical_state(crashed) == logical_state(witness), (
        f"seed {seed}, step {step}: rejoined replica diverges"
    )

    # Cache non-vacuity: the property runs with the cluster's caches ON
    # (cluster_options default since the coherence protocol), so the
    # schedules must actually exercise cached serves — otherwise every
    # assertion above would hold trivially for an uncached cluster too.
    hits = sum(
        deployment.server(name).stats().get("cache", {}).get("hits", 0)
        for name in cluster.membership.ring.members
    )
    assert hits > 0, f"seed {seed}: no replica ever served from its cache"
    return "crashed-and-converged"


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_any_replica_crash_equals_serial_witness(chunk):
    exercised = 0
    for seed in range(chunk * (SEEDS // CHUNKS), (chunk + 1) * (SEEDS // CHUNKS)):
        if check_seed(seed) == "crashed-and-converged":
            exercised += 1
    # The property must not hold vacuously: most schedules route at
    # least one journaled mutation onto the victim replica.
    assert exercised >= (SEEDS // CHUNKS) // 2


#: The coherence window sweeps fewer seeds: each seed is two full
#: cluster runs and the window only opens on epochs that touched keys.
COHERENCE_SEEDS = 10


@pytest.mark.parametrize("chunk", range(2))
def test_crash_between_commit_and_publish_equals_serial_witness(chunk):
    """Kill the victim in the one window the invalidation protocol adds:
    after the journal commit, before the coherence-log publish.  The
    takeover reset must heal the committed-but-unpublished tail so the
    survivors' responses and final state still match the serial witness
    — fallback-to-discard costs hits, never correctness."""
    exercised = 0
    half = COHERENCE_SEEDS // 2
    for seed in range(chunk * half, (chunk + 1) * half):
        if check_seed(seed, site="coherence:") == "crashed-and-converged":
            exercised += 1
    assert exercised >= half // 2
