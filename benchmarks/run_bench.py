#!/usr/bin/env python
"""Single-entry benchmark pipeline: uncached vs metadata cache.

Runs reduced-but-fixed versions of the paper's workloads (Fig. 3 reads,
Fig. 4 metadata mutations, Fig. 5 rollback ablation) plus the batched
multi-file mutation workloads against two server configurations.  Both
run every mutation in the journaled transaction, so both flush each
dirty guard node and the anchor (one ROTE quorum increment) once per
commit; they differ only in the cache:

* ``uncached`` — metadata cache off: every read pays PFS decrypt +
  Merkle + guard verification (with a ROTE quorum read).
* ``cached`` — the enclave-resident metadata cache on: hot metadata is
  served from EPC-charged enclave memory.

Latencies are **virtual-clock seconds** from the calibrated Azure cost
model (the same clock the figure reproductions use), so the comparison
measures exactly the crypto/storage/counter work the cache removes —
not Python interpreter noise.  Results land in ``BENCH_pipeline.json``;
docs/PERF.md explains how to read them.

Exit status is non-zero if any boolean entry of the report's ``criteria``
is false — the cached configuration slower than the uncached one, or a
speedup target missed — the regression gate CI runs on every push
(``--quick``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.workloads import KB, unique_bytes  # noqa: E402
from repro.core.enclave_app import SeGShareOptions  # noqa: E402
from repro.core.requests import Op, Request, Status  # noqa: E402
from repro.core.server import SeGShareServer  # noqa: E402
from repro.netsim import azure_wan_env  # noqa: E402
from repro.pki import CertificateAuthority  # noqa: E402

#: One CA for every server: RSA keygen dominates setup and is unmeasured.
_CA = CertificateAuthority(key_bits=1024)

CACHE_BYTES = 512 * 1024

CONFIGS = {
    "uncached": dict(metadata_cache_bytes=None),
    "cached": dict(metadata_cache_bytes=CACHE_BYTES),
}


def protected(**overrides) -> SeGShareOptions:
    """Whole-FS rollback protection over ROTE (every arm but ``no_rollback``)."""
    return SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=16,
        **overrides,
    )


def build_server(options: SeGShareOptions) -> SeGShareServer:
    return SeGShareServer(azure_wan_env(), _CA.public_key, options=options)


def virtual_time(server: SeGShareServer, fn) -> float:
    clock = server.env.clock
    start = clock.now()
    fn()
    return clock.now() - start


def get_file(server: SeGShareServer, user: str, path: str) -> bytes:
    response = server.enclave.handler.get(user, path)
    return b"".join(response.chunks)  # consuming the stream charges costs


def ok(response) -> None:
    assert response.status is Status.OK, response


# -- workloads ----------------------------------------------------------------------


def bench_fig3_read(repeats: int, file_kb: int = 4) -> dict:
    """Fig. 3's GET side, repeated-read shape: the same small file is
    downloaded ``repeats`` times.  Metadata work (ACL + member list +
    guard verification + ROTE read) dominates content crypto at this
    size, which is precisely what the cache amortizes."""
    out: dict = {"repeats": repeats, "file_kb": file_kb}
    content = unique_bytes("run-bench/fig3", 0, file_kb * KB)
    for name, overrides in CONFIGS.items():
        server = build_server(protected(**overrides))
        handler = server.enclave.handler
        ok(handler.handle("alice", Request(op=Op.PUT_DIR, args=("/data/",))))
        ok(handler.put_file("alice", "/data/doc", content))
        assert get_file(server, "alice", "/data/doc") == content  # warm once
        elapsed = virtual_time(
            server,
            lambda: [get_file(server, "alice", "/data/doc") for _ in range(repeats)],
        )
        out[name] = {
            "total_s": elapsed,
            "latency_s": elapsed / repeats,
            "ops_per_sec": repeats / elapsed if elapsed else float("inf"),
        }
        if name == "cached":
            stats = server.stats()
            out[name]["cache"] = stats["cache"]
            out[name]["epc_cache_bytes"] = stats["epc"]["cache_bytes"]
    out["speedup"] = out["uncached"]["latency_s"] / out["cached"]["latency_s"]
    return out


def bench_fig4_metadata(count: int) -> dict:
    """Fig. 4's shape: a stream of small metadata mutations (mkdir, put,
    set_permission), each its own journaled batch with one anchor write
    (ROTE quorum increment) per op; the cache saves the reads."""
    out: dict = {"count": count}
    for name, overrides in CONFIGS.items():
        server = build_server(protected(**overrides))
        handler = server.enclave.handler
        ok(handler.handle("alice", Request(op=Op.ADD_USER, args=("bob", "eng"))))

        def workload():
            for i in range(count):
                ok(handler.handle("alice", Request(op=Op.PUT_DIR, args=(f"/d{i}/",))))
                ok(handler.put_file("alice", f"/d{i}/f", unique_bytes("fig4", i, 512)))
                ok(
                    handler.handle(
                        "alice",
                        Request(op=Op.SET_PERM, args=(f"/d{i}/f", "eng", "r")),
                    )
                )

        elapsed = virtual_time(server, workload)
        out[name] = {
            "total_s": elapsed,
            "latency_s": elapsed / (3 * count),
            "ops_per_sec": (3 * count) / elapsed if elapsed else float("inf"),
        }
        if name == "cached":
            stats = server.stats()
            out[name]["cache"] = stats["cache"]
            out[name]["rollback_guard"] = stats["rollback_guard"]
    out["speedup"] = out["uncached"]["latency_s"] / out["cached"]["latency_s"]
    return out


def bench_mutation_batch(members: int) -> dict:
    """The multi-file mutation batch: ``delete_group`` over a group with
    ``members`` users — one journaled batch touching the group list and
    every member list, the paper's known-slow revocation path."""
    out: dict = {"members": members}
    for name, overrides in CONFIGS.items():
        server = build_server(protected(**overrides))
        handler = server.enclave.handler
        for i in range(members):
            ok(handler.handle("alice", Request(op=Op.ADD_USER, args=(f"u{i}", "eng"))))
        elapsed = virtual_time(
            server,
            lambda: ok(
                handler.handle("alice", Request(op=Op.DELETE_GROUP, args=("eng",)))
            ),
        )
        out[name] = {"total_s": elapsed, "latency_s": elapsed}
        if name == "cached":
            stats = server.stats()
            out[name]["cache"] = stats["cache"]
            out[name]["group_guard"] = stats["group_guard"]
    out["speedup"] = out["uncached"]["latency_s"] / out["cached"]["latency_s"]
    return out


def bench_fig5_rollback(repeats: int) -> dict:
    """Fig. 5's ablation, extended with the cache column: repeated GET
    latency with rollback protection off, on (uncached), and on with the
    metadata cache — how much of the integrity tax the cache refunds."""
    content = unique_bytes("run-bench/fig5", 0, 4 * KB)
    variants = {
        "no_rollback": SeGShareOptions(),
        "whole_fs": protected(metadata_cache_bytes=None),
        "whole_fs_cached": protected(metadata_cache_bytes=CACHE_BYTES),
    }
    out: dict = {"repeats": repeats}
    for name, options in variants.items():
        server = build_server(options)
        handler = server.enclave.handler
        ok(handler.put_file("alice", "/doc", content))
        assert get_file(server, "alice", "/doc") == content
        elapsed = virtual_time(
            server,
            lambda: [get_file(server, "alice", "/doc") for _ in range(repeats)],
        )
        out[name] = {"latency_s": elapsed / repeats}
    out["cached_overhead_vs_unprotected"] = (
        out["whole_fs_cached"]["latency_s"] / out["no_rollback"]["latency_s"]
    )
    out["uncached_overhead_vs_unprotected"] = (
        out["whole_fs"]["latency_s"] / out["no_rollback"]["latency_s"]
    )
    return out


def bench_cache_size_ablation(repeats: int) -> list[dict]:
    """Hit rate and latency as the cache shrinks below the working set."""
    rows = []
    paths = [f"/w/f{i}" for i in range(12)]
    for capacity in (8 * KB, 64 * KB, 512 * KB):
        server = build_server(protected(metadata_cache_bytes=capacity))
        handler = server.enclave.handler
        ok(handler.handle("alice", Request(op=Op.PUT_DIR, args=("/w/",))))
        for i, path in enumerate(paths):
            ok(handler.put_file("alice", path, unique_bytes("ablate", i, 2 * KB)))
        elapsed = virtual_time(
            server,
            lambda: [
                get_file(server, "alice", paths[i % len(paths)])
                for i in range(repeats)
            ],
        )
        stats = server.stats()
        rows.append(
            {
                "capacity_bytes": capacity,
                "latency_s": elapsed / repeats,
                "hit_rate": stats["cache"]["hit_rate"],
                "evictions": stats["cache"]["evictions"],
                "epc_cache_bytes": stats["epc"]["cache_bytes"],
            }
        )
    return rows


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
        default=str(Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.quick:
        fig3_repeats, fig4_count, members, fig5_repeats, ablation_repeats = (
            30, 10, 15, 20, 48,
        )
    else:
        fig3_repeats, fig4_count, members, fig5_repeats, ablation_repeats = (
            200, 60, 80, 100, 240,
        )

    print("fig3 repeated-read ...", flush=True)
    fig3 = bench_fig3_read(fig3_repeats)
    print(f"  uncached {fig3['uncached']['latency_s'] * 1e3:.3f} ms/op   "
          f"cached {fig3['cached']['latency_s'] * 1e3:.3f} ms/op   "
          f"speedup {fig3['speedup']:.2f}x   "
          f"hit rate {fig3['cached']['cache']['hit_rate']:.2f}")

    print("fig4 metadata mutations ...", flush=True)
    fig4 = bench_fig4_metadata(fig4_count)
    print(f"  uncached {fig4['uncached']['latency_s'] * 1e3:.3f} ms/op   "
          f"cached {fig4['cached']['latency_s'] * 1e3:.3f} ms/op   "
          f"speedup {fig4['speedup']:.2f}x")

    print("delete_group mutation batch ...", flush=True)
    batch = bench_mutation_batch(members)
    print(f"  uncached {batch['uncached']['latency_s'] * 1e3:.2f} ms   "
          f"cached {batch['cached']['latency_s'] * 1e3:.2f} ms   "
          f"speedup {batch['speedup']:.2f}x")

    print("fig5 rollback ablation ...", flush=True)
    fig5 = bench_fig5_rollback(fig5_repeats)
    print(f"  unprotected {fig5['no_rollback']['latency_s'] * 1e3:.3f} ms   "
          f"whole_fs {fig5['whole_fs']['latency_s'] * 1e3:.3f} ms   "
          f"whole_fs+cache {fig5['whole_fs_cached']['latency_s'] * 1e3:.3f} ms")

    print("cache size ablation ...", flush=True)
    ablation = bench_cache_size_ablation(ablation_repeats)
    for row in ablation:
        print(f"  {row['capacity_bytes'] // KB:>4} KB: hit rate {row['hit_rate']:.2f}  "
              f"{row['latency_s'] * 1e3:.3f} ms/op")

    criteria = {
        "fig3_read_speedup": round(fig3["speedup"], 2),
        "fig3_read_target_3x": fig3["speedup"] >= 3.0,
        "mutation_batch_speedup": round(batch["speedup"], 2),
        "mutation_batch_target_2x": batch["speedup"] >= 2.0,
        "cached_not_slower": fig3["speedup"] >= 1.0 and batch["speedup"] >= 1.0,
    }
    report = {
        "meta": {
            "quick": args.quick,
            "configs": {k: dict(v) for k, v in CONFIGS.items()},
            "clock": "virtual (calibrated Azure cost model)",
        },
        "fig3_read": fig3,
        "fig4_metadata": fig4,
        "mutation_batch": batch,
        "fig5_rollback": fig5,
        "cache_size_ablation": ablation,
        "criteria": criteria,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    print(f"criteria: {json.dumps(criteria)}")

    failed = [name for name, met in criteria.items() if met is False]
    if failed:
        print(f"FAIL: criteria not met: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
