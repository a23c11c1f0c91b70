#!/usr/bin/env python
"""Multi-client concurrency benchmark: throughput vs switchless workers.

Drives N closed-loop clients through the server's switchless worker pool
on the parallel virtual clock (docs/PERF.md §5) over two path sets:

* ``disjoint_read``  — every client repeatedly GETs its own file.  Path
  locks never conflict, so throughput should scale with the worker pool
  until switchless overhead flattens it.
* ``contended_write`` — every client repeatedly PUTs its own file inside
  one shared directory.  Uploads to distinct files share-lock the parent
  directory (they only need it to exist), so the pipeline overlaps them
  — and the group-commit coordinator coalesces the concurrently-prepared
  transactions into one commit epoch: one batched guard flush, one
  anchor write, one counter increment, one redo-record delete for the whole
  cohort (docs/PERF.md §5.4).  The curve should now *rise*
  with workers instead of sitting on the old serial commit ceiling.

Servers run over an 8-way :class:`repro.store.ShardedStore` router, so
every cell also reports the storage-engine transaction counters (puts
per commit, flush group sizes) and the per-shard op distribution —
demonstrating the multi-backend deployment under concurrent load.

Latencies are virtual-clock seconds from the calibrated Azure cost
model; results land in ``BENCH_concurrency.json`` with a per-account
wait breakdown (lock-wait, worker-wait, commit-wait, ...) per cell.

The cluster cells run with the coherence protocol's caches **on** (the
``cluster_options`` default since the cross-replica invalidation log):
``cluster_cached_read`` drives the same warm read mix through a cached
and an uncached 3-replica cluster and reports every replica's coherence
counters (applied epoch, lag, invalidations applied, full discards,
cache hits/misses) alongside the board's host-side view.

Exit status is non-zero if disjoint-path read throughput at 4 workers
fails to reach 2x the 1-worker figure, if contended-write throughput
at 8 workers fails to reach 1.3x the 1-worker figure, or if the cached
3-replica cluster fails to reach 2x the uncached cluster on warm reads
— the scaling gates CI runs on every push (``--quick``).
"""

from __future__ import annotations

import argparse
import base64
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.concurrency import ConcurrentDriver, parallel_env  # noqa: E402
from repro.bench.workloads import KB, unique_bytes  # noqa: E402
from repro.cluster import ClusterDriver, build_cluster  # noqa: E402
from repro.core import dedup  # noqa: E402
from repro.core.enclave_app import SeGShareOptions  # noqa: E402
from repro.core.requests import Op, Request, Status  # noqa: E402
from repro.core.server import SeGShareServer  # noqa: E402
from repro.pki import CertificateAuthority  # noqa: E402
from repro.sgx import SgxPlatform  # noqa: E402
from repro.storage import InMemoryStore, StoreSet  # noqa: E402

#: One CA for every server: RSA keygen dominates setup and is unmeasured.
_CA = CertificateAuthority(key_bits=1024)

CLIENTS = 8
WORKER_SWEEP = (1, 2, 4, 8)
REPLICA_SWEEP = (1, 3)
FILE_KB = 4
SHARDS = 8


def seed_object_ids(seed: int = 0) -> None:
    """Draw the random part of new object ids from ``seed``.

    An id keeps its ``obj:<tag>`` shape and length.  A random id (or a
    random platform id, which names the tag and the journal's keys) lands
    on a different shard in every run, and the per-shard counts in the
    report would not repeat at an unchanged commit.
    """
    rng = random.Random(seed)
    dedup.secrets = SimpleNamespace(
        token_urlsafe=lambda nbytes: base64.urlsafe_b64encode(rng.randbytes(nbytes)).decode("ascii")
    )


def build_server(workers: int) -> SeGShareServer:
    seed_object_ids()
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=16,
        metadata_cache_bytes=512 * KB,
        switchless_workers=workers,
    )
    stores = StoreSet.sharded([InMemoryStore() for _ in range(SHARDS)])
    env = parallel_env()
    platform = SgxPlatform(clock=env.clock, platform_id="bench-concurrency")
    return SeGShareServer(env, _CA.public_key, stores=stores, options=options, platform=platform)


def cell_counters(server: SeGShareServer) -> dict:
    """Switchless, group-commit, lock, engine, and shard counters."""
    stats = server.stats()
    sw = server.switchless.stats
    out = {
        "switchless": {
            "fast": sw.fast,
            "fallback": sw.fallback,
            "spins": sw.spins,
            "parks": sw.parks,
            "wakes": sw.wakes,
            "queued": sw.queued,
            "worker_wait_s": round(sw.worker_wait_s, 6),
        },
        "locks": stats["locks"],
        "engine": stats["engine"],
        "shards": stats["shards"],
    }
    if "group_commit" in stats:
        out["group_commit"] = stats["group_commit"]
    return out


def replica_counters(deployment) -> dict:
    """Per-replica coherence + cache counters — in every cluster cell."""
    out = {}
    for name in deployment.cluster.membership.ring.members:
        stats = deployment.server(name).stats()
        entry = {}
        if "coherence" in stats:
            entry["coherence"] = stats["coherence"]
        if "cache" in stats:
            entry["cache"] = {
                "hits": stats["cache"]["hits"],
                "misses": stats["cache"]["misses"],
                "hit_rate": stats["cache"]["hit_rate"],
            }
        out[name] = entry
    return out


def ok(response) -> None:
    assert response.status is Status.OK, response


def get_file(server: SeGShareServer, user: str, path: str) -> None:
    response = server.enclave.handler.get(user, path)
    assert b"".join(response.chunks)  # consuming the stream charges costs


# -- workloads ----------------------------------------------------------------------


def run_disjoint_read(workers: int, ops_per_client: int) -> dict:
    """Each client GETs its own file: no lock conflicts, pure pool scaling."""
    server = build_server(workers)
    handler = server.enclave.handler
    for c in range(CLIENTS):
        ok(handler.handle(f"u{c}", Request(op=Op.PUT_DIR, args=(f"/c{c}/",))))
        ok(
            handler.put_file(
                f"u{c}", f"/c{c}/doc", unique_bytes("conc/read", c, FILE_KB * KB)
            )
        )
        get_file(server, f"u{c}", f"/c{c}/doc")  # warm the metadata cache
    driver = ConcurrentDriver(server)
    clients = [
        [
            (lambda c=c: get_file(server, f"u{c}", f"/c{c}/doc"))
            for _ in range(ops_per_client)
        ]
        for c in range(CLIENTS)
    ]
    result = driver.run(clients)
    out = result.summary()
    out.update(cell_counters(server))
    return out


def run_contended_write(workers: int, ops_per_client: int) -> dict:
    """Each client PUTs under one shared directory: the uploads overlap
    (parent share-locked, distinct file paths) and their prepared
    transactions coalesce into shared commit epochs, amortizing the
    guard flush, anchor write, counter increment and record delete."""
    server = build_server(workers)
    handler = server.enclave.handler
    ok(handler.handle("u0", Request(op=Op.PUT_DIR, args=("/shared/",))))
    for c in range(CLIENTS):
        ok(
            handler.put_file(
                "u0", f"/shared/f{c}", unique_bytes("conc/write", c, 1 * KB)
            )
        )
    driver = ConcurrentDriver(server)
    clients = [
        [
            (
                lambda c=c, i=i: ok(
                    handler.put_file(
                        "u0",
                        f"/shared/f{c}",
                        unique_bytes("conc/write", c * 1000 + i + 1, 1 * KB),
                    )
                )
            )
            for i in range(ops_per_client)
        ]
        for c in range(CLIENTS)
    ]
    result = driver.run(clients)
    out = result.summary()
    out.update(cell_counters(server))
    return out


def run_cluster_disjoint_read(replicas: int, ops_per_client: int) -> dict:
    """Each client GETs its own top-level directory's file through the
    cluster front door.  Disjoint top-level paths mean disjoint affinity
    keys, so with 3 replicas the rendezvous placement spreads the clients
    over 3 independent enclaves (worker pools, journals) against the one
    shared repository — throughput should rise accordingly versus the
    single-replica cluster."""
    deployment = build_cluster(replicas=replicas, parallel=True, ca=_CA)
    cluster = deployment.cluster

    def cluster_get(user: str, path: str, arrival: float) -> None:
        response = cluster.handle(user, Request(op=Op.GET, args=(path,)), arrival=arrival)
        assert b"".join(response.chunks)  # consuming the stream charges costs

    for c in range(CLIENTS):
        ok(cluster.handle(f"u{c}", Request(op=Op.PUT_DIR, args=(f"/c{c}/",))))
        ok(
            cluster.put_file(
                f"u{c}", f"/c{c}/doc", unique_bytes("conc/cluster", c, FILE_KB * KB)
            )
        )
    driver = ClusterDriver(cluster)
    clients = [
        [
            (lambda arrival, c=c: cluster_get(f"u{c}", f"/c{c}/doc", arrival))
            for _ in range(ops_per_client)
        ]
        for c in range(CLIENTS)
    ]
    result = driver.run(clients)
    out = result.summary()
    out["cluster"] = cluster.stats()
    out["replicas"] = replica_counters(deployment)
    return out


def run_cluster_cached_read(
    replicas: int, ops_per_client: int, cached: bool
) -> dict:
    """The disjoint read mix, warm, through a cached vs uncached cluster.

    One warm GET per client first: with ``cached`` the guard nodes and
    metadata land in each serving replica's cache and every measured
    read epoch-checks the coherence board (one untrusted int compare)
    then serves decrypted metadata from enclave memory; uncached, every
    read re-fetches and re-verifies against the shared store — the
    posture the whole cluster was stuck in before the invalidation log.
    """
    deployment = build_cluster(
        replicas=replicas, parallel=True, ca=_CA, cached=cached
    )
    cluster = deployment.cluster

    def cluster_get(user: str, path: str, arrival: float | None) -> None:
        response = cluster.handle(user, Request(op=Op.GET, args=(path,)), arrival=arrival)
        assert b"".join(response.chunks)  # consuming the stream charges costs

    for c in range(CLIENTS):
        ok(cluster.handle(f"u{c}", Request(op=Op.PUT_DIR, args=(f"/c{c}/",))))
        ok(
            cluster.put_file(
                f"u{c}", f"/c{c}/doc", unique_bytes("conc/cached", c, FILE_KB * KB)
            )
        )
        cluster_get(f"u{c}", f"/c{c}/doc", None)  # warm pass
    driver = ClusterDriver(cluster)
    clients = [
        [
            (lambda arrival, c=c: cluster_get(f"u{c}", f"/c{c}/doc", arrival))
            for _ in range(ops_per_client)
        ]
        for c in range(CLIENTS)
    ]
    result = driver.run(clients)
    out = result.summary()
    out["cluster"] = cluster.stats()
    out["replicas"] = replica_counters(deployment)
    return out


# -- driver -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workloads (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_concurrency.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    ops_per_client = 6 if args.quick else 25

    workloads = {
        "disjoint_read": run_disjoint_read,
        "contended_write": run_contended_write,
    }
    results: dict = {}
    for name, runner in workloads.items():
        print(f"{name} ...", flush=True)
        cells = {}
        for workers in WORKER_SWEEP:
            cell = runner(workers, ops_per_client)
            cells[str(workers)] = cell
            waits = cell["wait_breakdown_s"]
            dominant = max(waits, key=waits.get) if any(waits.values()) else "-"
            print(
                f"  {workers} worker(s): {cell['throughput_ops_per_s']:>9.2f} ops/s   "
                f"mean {cell['mean_latency_s'] * 1e3:7.3f} ms   "
                f"dominant wait: {dominant}"
            )
        base = cells["1"]["throughput_ops_per_s"]
        scaling = {
            str(w): round(cells[str(w)]["throughput_ops_per_s"] / base, 3)
            for w in WORKER_SWEEP
        }
        print(f"  scaling vs 1 worker: {scaling}")
        results[name] = {"by_workers": cells, "scaling_vs_1_worker": scaling}

    print("cluster_disjoint_read ...", flush=True)
    cluster_cells = {}
    for replicas in REPLICA_SWEEP:
        cell = run_cluster_disjoint_read(replicas, ops_per_client)
        cluster_cells[str(replicas)] = cell
        print(
            f"  {replicas} replica(s): {cell['throughput_ops_per_s']:>9.2f} ops/s   "
            f"mean {cell['mean_latency_s'] * 1e3:7.3f} ms   "
            f"routing: {cell['cluster']['routed_by_member']}"
        )
    cluster_base = cluster_cells["1"]["throughput_ops_per_s"]
    cluster_scaling = {
        str(r): round(cluster_cells[str(r)]["throughput_ops_per_s"] / cluster_base, 3)
        for r in REPLICA_SWEEP
    }
    print(f"  scaling vs 1 replica: {cluster_scaling}")
    results["cluster_disjoint_read"] = {
        "by_replicas": cluster_cells,
        "scaling_vs_1_replica": cluster_scaling,
    }

    print("cluster_cached_read ...", flush=True)
    cached_replicas = max(REPLICA_SWEEP)
    cached_cells = {}
    for mode, cached in (("uncached", False), ("cached", True)):
        cell = run_cluster_cached_read(cached_replicas, ops_per_client, cached)
        cached_cells[mode] = cell
        coherence = {
            name: entry.get("coherence", {})
            for name, entry in cell["replicas"].items()
        }
        lag = {n: c.get("epoch_lag_max", 0) for n, c in coherence.items()}
        discards = {n: c.get("full_discards", 0) for n, c in coherence.items()}
        hits = {n: c.get("cache_hits", 0) for n, c in coherence.items()}
        print(
            f"  {mode:>8}: {cell['throughput_ops_per_s']:>9.2f} ops/s   "
            f"mean {cell['mean_latency_s'] * 1e3:7.3f} ms   "
            f"hits {hits}   lag_max {lag}   full_discards {discards}"
        )
    cached_speedup = round(
        cached_cells["cached"]["throughput_ops_per_s"]
        / cached_cells["uncached"]["throughput_ops_per_s"],
        3,
    )
    print(f"  cached vs uncached at {cached_replicas} replicas: {cached_speedup}x")
    results["cluster_cached_read"] = {
        "replicas": cached_replicas,
        "by_mode": cached_cells,
        "cached_vs_uncached": cached_speedup,
    }

    disjoint_4w = results["disjoint_read"]["scaling_vs_1_worker"]["4"]
    contended_8w = results["contended_write"]["scaling_vs_1_worker"]["8"]
    contended_8w_waits = results["contended_write"]["by_workers"]["8"][
        "wait_breakdown_s"
    ]
    cluster_3r = results["cluster_disjoint_read"]["scaling_vs_1_replica"]["3"]
    criteria = {
        "disjoint_read_scaling_4w": disjoint_4w,
        "disjoint_read_target_2x": disjoint_4w >= 2.0,
        # Informational: disjoint affinities should spread over replicas.
        "cluster_disjoint_read_scaling_3r": cluster_3r,
        # Group commit broke the serial commit ceiling: contended writes
        # must now scale with workers instead of sitting near-flat
        # (docs/PERF.md §5.4 explains the amortization).
        "contended_write_scaling_8w": contended_8w,
        "contended_write_target_1_3x": contended_8w >= 1.3,
        # Time spent waiting for a shared epoch to close must show up
        # under its own account, not be mislabeled as lock-wait.
        "commit_wait_attributed": contended_8w_waits.get("commit-wait", 0.0) > 0.0,
        # The coherence protocol must earn its keep: warm reads through
        # the cached 3-replica cluster at least double the uncached
        # (always-reverify) cluster's throughput.
        "cluster_cached_read_speedup_3r": cached_speedup,
        "cluster_cached_read_target_2x": cached_speedup >= 2.0,
    }
    report = {
        "meta": {
            "quick": args.quick,
            "clients": CLIENTS,
            "ops_per_client": ops_per_client,
            "worker_sweep": list(WORKER_SWEEP),
            "replica_sweep": list(REPLICA_SWEEP),
            "shards": SHARDS,
            "clock": "parallel virtual (calibrated Azure cost model)",
        },
        "workloads": results,
        "criteria": criteria,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    print(f"criteria: {json.dumps(criteria)}")

    failed = False
    if not criteria["disjoint_read_target_2x"]:
        print(
            "FAIL: disjoint-path read throughput at 4 workers is below 2x "
            "the 1-worker figure",
            file=sys.stderr,
        )
        failed = True
    if not criteria["contended_write_target_1_3x"]:
        print(
            "FAIL: contended-write throughput at 8 workers is below 1.3x "
            "the 1-worker figure (group commit is not coalescing)",
            file=sys.stderr,
        )
        failed = True
    if not criteria["cluster_cached_read_target_2x"]:
        print(
            "FAIL: warm cached-cluster reads are below 2x the uncached "
            "cluster (the coherence protocol is not winning the caches back)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
