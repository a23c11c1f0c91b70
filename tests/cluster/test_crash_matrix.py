"""Cluster crash matrix: every replica, every class of external effect.

A crash state is a prefix of the victim's external effects
(tests/support/explorer.py).  For each replica of a fixed workload, the
matrix kills it before each effect of one class — the journal's (records,
stamps, applied writes), the anchor's (guard nodes, counter, anchor),
and the coherence publish (committed but unpublished, healed by the
takeover reset) — the classes the old named sites ``journal:``,
``anchor:`` and ``coherence:`` stood before.  The cluster must absorb the
crash: the in-flight request completes (re-executed or
stamp-synthesized), the survivors' state verifies, and the crashed
replica can restart and re-join.  A candidate dying mid-join is swept over
its join's effects, and killed once they all landed, before its catch-up.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster, path_affinity
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Status
from repro.faults import faulty_stores
from repro.pki import CertificateAuthority
from repro.storage.stores import StoreSet
from tests.support.explorer import EFFECT_CLASSES, RecordingPlan, arm

_CA = CertificateAuthority(key_bits=1024)

REPLICAS = 3


def build(seed: int = 0):
    return build_cluster(replicas=REPLICAS, parallel=True, ca=_CA, seed=seed)


def prime(deployment) -> None:
    handler = deployment.server("r0").enclave.handler
    assert handler.handle("u0", Request(op=Op.PUT_DIR, args=("/a/",))).status is Status.OK
    assert handler.put_file("u0", "/a/keep", b"survives").status is Status.OK


def workload(cluster) -> list[str]:
    """A fixed request mix spanning all three replicas' affinities."""
    results = []
    for path, content in [("/a/f", b"one"), ("/b/", None), ("/b/f", b"two"), ("/c/", None), ("/c/f", b"three")]:
        if content is None:
            response = cluster.handle("u0", Request(op=Op.PUT_DIR, args=(path,)))
        else:
            response = cluster.put_file("u0", path, content)
        results.append(response.status.name)
    results.append(cluster.handle("u0", Request(op=Op.ADD_USER, args=("u1", "eng"))).status.name)
    return results


#: What the workload returns when nothing crashes (every op succeeds).
EXPECTED = ["OK"] * 6


def count_steps(victim: str, site: str) -> list[int]:
    """The effect indices of ``site``'s class the workload makes on ``victim``."""
    deployment = build()
    prime(deployment)
    plan = arm(deployment.server(victim))
    start = len(plan.labels)
    workload(deployment.cluster)
    plan.detach()
    return [k for k, label in enumerate(plan.labels[start:]) if EFFECT_CLASSES[site](label)]


@pytest.mark.parametrize("victim", [f"r{i}" for i in range(REPLICAS)])
@pytest.mark.parametrize("site", EFFECT_CLASSES)
def test_crash_matrix_serving_path(victim, site):
    """Kill ``victim`` before each effect of the ``site`` class of the workload."""
    steps = count_steps(victim, site)
    if not steps:
        pytest.skip(f"workload routes no {site} work to {victim}")
    for step in steps:
        deployment = build()
        prime(deployment)
        cluster = deployment.cluster
        plan = arm(deployment.server(victim))
        plan.crash_after_effects(step)
        results = workload(cluster)
        plan.detach()

        assert results == EXPECTED, f"step {step}: a client saw a failure"
        assert cluster.stats()["failovers"] >= 1, f"step {step}: crash never fired"
        assert victim not in cluster.membership.ring

        # Survivors hold a consistent, verified repository.
        survivor = deployment.server(cluster.membership.ring.members[0])
        survivor.enclave.guard.verify_restored_state()
        manager = survivor.enclave.manager
        assert manager.read_content("/a/keep") == b"survives"
        for path, content in [("/a/f", b"one"), ("/b/f", b"two"), ("/c/f", b"three")]:
            assert manager.read_content(path) == content, f"step {step}: {path} torn"

        # The crashed replica restarts from sealed state and re-joins.
        crashed = deployment.server(victim)
        crashed.restart_enclave()
        assert cluster.admit(victim, crashed)
        assert crashed.handle.call("cluster_verify_anchor") is True


class TestQuotaRefusalFailover:
    """A quota-refused request fails over like any other request.

    ``cluster_options`` passes ``quota_bytes`` through since the refusal
    became a transaction *abort* (``QuotaExceeded``): no stamp commits,
    so after a mid-request crash the takeover reads "not committed" and
    the survivors re-execute to the byte-identical refusal — never a
    synthesized OK for a request that was going to be refused, and never
    quota silently consumed by a half-crashed upload.
    """

    QUOTA = 1000

    def build_limited(self, seed: int = 0):
        options = SeGShareOptions(rollback_buckets=8, quota_bytes=self.QUOTA)
        deployment = build_cluster(replicas=REPLICAS, parallel=True, ca=_CA, seed=seed, options=options)
        handler = deployment.server("r0").enclave.handler
        assert handler.handle("u0", Request(op=Op.PUT_DIR, args=("/q/",))).status is Status.OK
        assert handler.put_file("u0", "/q/keep", b"x" * 600).status is Status.OK
        return deployment

    def test_refusal_is_identical_across_failover(self):
        big = b"y" * 600  # 600 used + 600 > 1000: refused

        # No-crash baseline: the refusal's status and wire message.
        deployment = self.build_limited()
        baseline = deployment.cluster.put_file("u0", "/q/big", big)
        assert baseline.status is Status.ERROR
        assert "quota exceeded" in baseline.message

        # Counting pass: the effects the refused request makes on the
        # replica that owns its path affinity.
        owner = deployment.cluster.membership.ring.owner(path_affinity("/q/big"))
        deployment = self.build_limited()
        plan = arm(deployment.server(owner))
        start = plan.effects
        deployment.cluster.put_file("u0", "/q/big", big)
        plan.detach()
        steps = plan.effects - start
        assert steps > 0, "the refused upload made no effect"

        for step in range(steps):
            deployment = self.build_limited()
            cluster = deployment.cluster
            plan = arm(deployment.server(owner))
            plan.crash_after_effects(step)
            response = cluster.put_file("u0", "/q/big", big)
            plan.detach()

            assert cluster.stats()["failovers"] >= 1, f"step {step}: crash never fired"
            assert response.status is Status.ERROR, f"step {step}: {response.status}"
            assert response.message == baseline.message, f"step {step}"

            # The refusal consumed nothing — not on the original replica,
            # not through the crash: an in-quota upload still fits and the
            # survivors' state verifies.
            survivor = deployment.server(cluster.membership.ring.members[0])
            assert cluster.put_file("u0", "/q/fits", b"z" * 300).status is Status.OK
            cluster.quiesce()  # flush open epochs so the anchors are current
            survivor.enclave.guard.verify_restored_state()
            assert survivor.enclave.manager.read_content("/q/keep") == b"x" * 600


class TestJoinCatchupCrash:
    """A candidate dying mid-join stays out, restarts, and joins cleanly."""

    @staticmethod
    def kill_before_catchup(candidate, plan) -> None:
        """The crash state after the join's last effect: the sealed root key
        persisted, and the candidate dies as it first reads the repository."""
        call = candidate.handle.call

        def dying(name, *args, **kwargs):
            if name == "cluster_verify_anchor":
                plan.kill("the join's catch-up")
            return call(name, *args, **kwargs)

        candidate.handle.call = dying

    def test_crash_mid_join_catchup_then_rejoin(self):
        deployment = build()
        prime(deployment)
        plan = RecordingPlan()
        candidate = deployment.new_server(faulty_stores(StoreSet.over(deployment.backend), plan))
        plan.attach_platform(candidate.platform)
        start = plan.effects
        assert deployment.cluster.admit("r3", candidate)
        steps = plan.effects - start
        assert steps > 0, "the join made no effect on the candidate"

        for step in range(steps + 1):
            deployment = build()
            prime(deployment)
            cluster = deployment.cluster
            plan = RecordingPlan()
            candidate = deployment.new_server(faulty_stores(StoreSet.over(deployment.backend), plan))
            plan.attach_platform(candidate.platform)
            if step < steps:
                plan.crash_after_effects(step)
            else:
                self.kill_before_catchup(candidate, plan)
            with pytest.raises(Exception):
                cluster.admit("r3", candidate)
            plan.detach()
            assert not candidate.enclave.alive, f"step {step}: the candidate never died"

            # Not admitted; the cluster keeps serving without it.
            assert "r3" not in cluster.membership.ring
            assert deployment.server("r0").enclave.handler.put_file("u0", "/a/during", b"x").status is Status.OK

            # Whatever sealed state survived the crash: restart, then re-join
            # (with every join effect landed, over the persisted sealed key).
            candidate.restart_enclave()
            assert candidate.enclave.ready or step < steps
            assert cluster.admit("r3", candidate)
            assert cluster.membership.ring.members == ["r0", "r1", "r2", "r3"]
            assert candidate.handle.call("cluster_verify_anchor") is True
