"""A realistic mixed workload against a fully-loaded deployment.

One deployment with every extension on; a small organization works on it
for a while; afterwards, global invariants must hold: contents match a
reference model, quotas sum correctly, the audit chain verifies, dedup
refcounts are exact, and the rollback guards accept a full recompute.
"""

import pytest

from repro.bench.concurrency import parallel_env
from repro.bench.workloads import unique_bytes
from repro.core.enclave_app import SeGShareOptions
from repro.errors import AccessDenied
from repro.netsim import azure_wan_env

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def org(user_key):
    from repro.core.server import deploy

    deployment = deploy(
        env=azure_wan_env(),
        options=SeGShareOptions(
            hide_paths=True,
            enable_dedup=True,
            rollback="whole_fs",
            counter_kind="rote",
            audit=True,
            quota_bytes=1_000_000,
            metadata_cache_bytes=256 * 1024,
        ),
    )
    users = {
        name: deployment.connect(deployment.user_identity(name, key=user_key))
        for name in ("ceo", "eng1", "eng2", "sales1", "contractor")
    }
    return deployment, users


def test_soak_workload(org):
    deployment, users = org
    ceo, eng1, eng2, sales1, contractor = (
        users["ceo"], users["eng1"], users["eng2"], users["sales1"], users["contractor"]
    )
    model: dict[str, bytes] = {}

    # -- build the org structure ------------------------------------------------
    ceo.mkdir("/eng/")
    ceo.mkdir("/sales/")
    ceo.mkdir("/eng/specs/")
    ceo.add_user("eng1", "engineering")
    ceo.add_user("eng2", "engineering")
    ceo.add_user("sales1", "sales")
    ceo.add_user("contractor", "engineering")
    ceo.set_permission("/eng/", "engineering", "rw")
    ceo.set_permission("/eng/specs/", "engineering", "rw")
    ceo.set_permission("/sales/", "sales", "rw")

    # -- a few weeks of activity ---------------------------------------------------
    for week in range(3):
        for i, author in enumerate((eng1, eng2)):
            path = f"/eng/specs/design-{week}-{i}.md"
            content = unique_bytes("soak", week * 10 + i, 2_000)
            author.upload(path, content)
            author.set_inherit(path, True)
            # Company policy: the CEO co-owns everything under /eng/ (F7),
            # which is what later allows the archive reorganization.
            author.add_owner(path, "u:ceo")
            model[path] = content
        sales_path = f"/sales/forecast-{week}.csv"
        sales_content = unique_bytes("soak-sales", week, 1_500)
        sales1.upload(sales_path, sales_content)
        model[sales_path] = sales_content
        # Everyone re-uploads the same onboarding doc (dedup fodder).
        onboarding = b"onboarding guide v1"
        for j, user in enumerate((eng1, eng2, sales1)):
            path = f"/onboard-{week}-{j}.txt"
            user.upload(path, onboarding)
            model[path] = onboarding

    # Cross-team access fails...
    with pytest.raises(AccessDenied):
        sales1.download("/eng/specs/design-0-0.md")
    # ...until granted, then revoked again.
    ceo.set_permission("/eng/specs/design-0-0.md", "sales", "r")
    assert sales1.download("/eng/specs/design-0-0.md") == model["/eng/specs/design-0-0.md"]
    ceo.set_permission("/eng/specs/design-0-0.md", "sales", "")

    # The contractor is offboarded mid-project: immediate, global.
    assert contractor.download("/eng/specs/design-1-0.md") == model["/eng/specs/design-1-0.md"]
    ceo.remove_user("contractor", "engineering")
    with pytest.raises(AccessDenied):
        contractor.download("/eng/specs/design-1-1.md")

    # Reorganization: engineering archive moves wholesale.
    ceo.mkdir("/archive/")
    eng_archive = {}
    for path in list(model):
        if path.startswith("/eng/specs/design-0"):
            new_path = "/archive/" + path.rsplit("/", 1)[1]
            ceo.move(path, new_path)
            eng_archive[new_path] = model.pop(path)
    model.update(eng_archive)

    # Cleanup: week-0 onboarding copies deleted.
    for j, user in enumerate((eng1, eng2, sales1)):
        user.remove(f"/onboard-0-{j}.txt")
        del model[f"/onboard-0-{j}.txt"]

    # -- global invariants -------------------------------------------------------------
    enclave = deployment.server.enclave

    # 1. Every file reads back exactly per the model (owners read their own;
    #    the ceo owns moved files).
    readers = {"/archive/": ceo, "/eng/": eng1, "/sales/": sales1, "/onboard": ceo}
    for path, expected in model.items():
        reader = next(
            (user for prefix, user in readers.items() if path.startswith(prefix)), ceo
        )
        if path.startswith("/onboard"):
            reader = {"0": eng1, "1": eng2, "2": sales1}[path[-5]]
        assert reader.download(path) == expected, path

    # 2. Dedup store holds exactly the distinct contents.
    distinct = {bytes(v) for v in model.values()}
    assert enclave.manager.dedup.object_count() == len(distinct)

    # 3. Quota ledgers sum to the model's accounted bytes.
    total_used = sum(
        enclave.manager.read_quota(user) for user in enclave.access.known_users()
    )
    assert total_used == sum(len(v) for v in model.values())

    # 4. The rollback trees accept a full recomputation.
    assert enclave.guard.recompute_main() == enclave.guard.root_hash()

    # 5. The audit chain verifies end to end and recorded the offboarding.
    records = enclave.audit_log.read_all()
    assert any(
        r.op == "RMV_USER" and r.args == ("contractor", "engineering") for r in records
    )
    denied = [r for r in records if r.outcome == "denied"]
    assert len(denied) >= 2  # sales probe + offboarded contractor


@pytest.mark.parametrize("env", [azure_wan_env, parallel_env], ids=["serial", "parallel"])
def test_fault_seeded_soak(user_key, env):
    """The soak's adversarial sibling: the same kind of workload with
    transient storage faults and scheduled enclave crashes injected from
    one seeded plan.  The client retries what it can; when the enclave
    dies (or degrades after a failed rollback) the test restarts it —
    journal recovery must always yield a state where simply retrying the
    interrupted operation completes the workload exactly.

    ``SEGSHARE_FAULT_SEED`` picks the schedule, so CI can sweep seeds.
    Both clock kinds run it: on the parallel clock each request's opener
    closes the previous one's epoch, so faults also land in epoch closes.
    """
    import os

    from repro.core.server import deploy
    from repro.errors import EnclaveCrashed, RetryPolicy, ServiceUnavailableError
    from repro.faults import FaultPlan, faulty_stores
    from repro.storage.stores import StoreSet

    from repro.errors import StorageError

    seed = int(os.environ.get("SEGSHARE_FAULT_SEED", "0"))
    plan = FaultPlan(seed=seed)
    plan.fail_randomly(probability=0.004, op="put", store="content", limit=8)
    # Three crashes, each the given number of effects after the last start.
    crashes = [100, 130, 160]

    stores = faulty_stores(StoreSet.in_memory(), plan)
    deployment = deploy(
        env=env(),
        stores=stores,
        options=SeGShareOptions(
            rollback="whole_fs",
            counter_kind="rote",
            rollback_buckets=8,
            enable_dedup=True,
            metadata_cache_bytes=128 * 1024,
        ),
    )
    plan.attach_platform(deployment.server.platform)
    plan.crash_after_effects(crashes.pop(0))
    policy = RetryPolicy(attempts=6, base_delay=0.01)
    identity = deployment.user_identity("alice", key=user_key)

    def fresh_client():
        return deployment.connect(identity, retry=policy)

    alice = fresh_client()
    model: dict[str, bytes] = {}
    restarts = 0

    def restart():
        # Recovery itself can be hit by faults; it keeps the journal until
        # it completes, so simply restarting again is always safe.
        for _ in range(6):
            try:
                deployment.server.restart_enclave()
                if crashes:
                    plan.crash_after_effects(crashes.pop(0))
                return
            except (EnclaveCrashed, StorageError):
                continue
        pytest.fail("enclave recovery kept failing")

    def run_resiliently(operation):
        nonlocal alice, restarts
        for _ in range(5):
            try:
                operation(alice)
                return
            except (EnclaveCrashed, ServiceUnavailableError):
                restarts += 1
                restart()
                alice = fresh_client()
        pytest.fail("operation kept failing across enclave restarts")

    for i in range(60):
        path = f"/doc-{i % 12}"
        content = unique_bytes("fault-soak", i, 400)
        run_resiliently(lambda c: c.upload(path, content))
        model[path] = content
        if i % 17 == 11:
            victim = f"/doc-{(i - 3) % 12}"
            if victim in model:
                run_resiliently(lambda c: c.remove(victim))
                del model[victim]

    assert restarts >= 1, "the crash schedule never fired — workload too small"

    # Every surviving file reads back exactly; the guard accepts a full
    # recompute; no journal residue is left behind.
    for path, expected in sorted(model.items()):
        assert alice.download(path) == expected, path
    enclave = deployment.server.enclave
    enclave.engine.quiesce()
    assert enclave.guard.recompute_main() == enclave.guard.root_hash()
    residue = ("\x00journal:redo:", "\x00journal:part:")
    assert not any(key.startswith(residue) for key in deployment.server.stores.content.keys())
