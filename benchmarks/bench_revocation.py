#!/usr/bin/env python
"""Head-to-head revocation benchmark: enclave ACLs vs IBBE-SGX envelopes.

The paper's central systems claim (§VII-B, Table on related work): because
the enclave *enforces* access control, SeGShare revokes a member with ONE
member-list update — constant in group size — while cryptographic group
access control (IBBE-SGX and the hybrid-encryption family) must re-key
the group on every revocation: a fresh group key plus an envelope for
every remaining member, O(|group|) now, and lazy re-encryption of every
affected file later.

This bench runs the SAME revocation workload against both pluggable
authorization backends (``SeGShareOptions.authz_backend``) over group
sizes 10^2–10^5, on the full protection stack (journal + whole-fs
rollback guard + ROTE counters + metadata cache) and the calibrated
Azure virtual clock, so every cell's latency carries the same modeled
crypto/storage/counter costs the figure reproductions use.  Each cell
also records the backend's own operation counters
(``stats()["authz"]``) and, for IBBE, the reconcile pass that settles
the deferred re-encryption debt.

Results land in ``BENCH_revocation.json``.  Exit status is non-zero if
the claim fails to reproduce: ACL revocation must stay flat — costing
no more than a membership *add* at the same size, which cancels the
protection stack's own O(users) read-verification term both backends
pay — IBBE revocation must grow with the group, and the two must
separate clearly at the largest size (the ``--quick`` CI gate).
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

BACKENDS = ("enclave_acl", "ibbe")
FULL_SIZES = (100, 1_000, 10_000, 100_000)
QUICK_SIZES = (100, 400, 1_600)

#: Files the group is granted before the revocations: the reconcile
#: column measures the deferred re-encryption debt they accumulate.
FILES = 4
FILE_SIZE = 8 * KB
#: Distinct members revoked (and fresh users added) per cell; latencies
#: are the per-operation averages.
OPS = 3


def build_server(backend: str, members: int) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        # A production deployment sizes guard buckets to its repository;
        # fixed buckets over 10^5 member-list leaves would measure the
        # guard's bucket rehash, not the authorization backend.
        rollback_buckets=max(16, members // 64),
        metadata_cache_bytes=512 * 1024,
        authz_backend=backend,
    )
    return SeGShareServer(azure_wan_env(), _CA.public_key, options=options)


def virtual_time(server: SeGShareServer, fn) -> float:
    clock = server.env.clock
    start = clock.now()
    fn()
    return clock.now() - start


def ok(response) -> None:
    assert response.status is Status.OK, response


def run_cell(backend: str, members: int) -> dict:
    server = build_server(backend, members)
    handler = server.enclave.handler
    # Bulk-seeded membership (the measured operations below go through
    # the full request path; seeding 10^5 members one request at a time
    # would only measure Python overhead).
    roster = [f"m{i}" for i in range(members)]
    server.enclave.access.bootstrap_group("admin", "team", roster)
    for i in range(FILES):
        ok(handler.put_file("admin", f"/t{i}.dat", unique_bytes("rev", i, FILE_SIZE)))
        ok(
            handler.handle(
                "admin", Request(op=Op.SET_PERM, args=(f"/t{i}.dat", "team", "r"))
            )
        )

    add_s = [
        virtual_time(
            server,
            lambda i=i: ok(
                handler.handle(
                    "admin", Request(op=Op.ADD_USER, args=(f"extra{i}", "team"))
                )
            ),
        )
        for i in range(OPS)
    ]
    revoke_s = [
        virtual_time(
            server,
            lambda i=i: ok(
                handler.handle(
                    "admin", Request(op=Op.RMV_USER, args=(f"m{i + 1}", "team"))
                )
            ),
        )
        for i in range(OPS)
    ]
    reconcile_s = virtual_time(server, server.authz_reconcile)
    # A second pass must find the debt settled; its report is part of
    # the cell so the JSON shows reconcile is not a recurring tax.
    report = server.authz_reconcile()

    stats = server.stats()["authz"]
    return {
        "backend": backend,
        "members": members,
        "add_ms": sum(add_s) / OPS * 1e3,
        "revoke_ms": sum(revoke_s) / OPS * 1e3,
        "reconcile_ms": reconcile_s * 1e3,
        "reconcile_idempotent": report,
        "counters": {k: v for k, v in stats.items() if k != "backend"},
    }


def check_gates(cells: list[dict], sizes: tuple[int, ...]) -> list[dict]:
    """The reproduction claims, as pass/fail gates.

    The flatness gate is *normalized*: at 10^5 registered users the
    shared protection stack itself (the flat-store guard's per-read
    bucket verification walks the user registry) contributes an
    O(users) term that BOTH backends pay on EVERY membership operation
    — it shows up identically in ``add_ms``.  The paper's claim is
    about revocation-specific work, so the gate compares each
    backend's revoke against its own add at the same size: for the
    ACL backend a revocation must cost no more than any other O(1)
    member-list update, while IBBE's ratio grows with the group.
    """
    by = {(c["backend"], c["members"]): c for c in cells}
    lo, hi = sizes[0], sizes[-1]
    acl_norm = max(
        by["enclave_acl", size]["revoke_ms"] / by["enclave_acl", size]["add_ms"]
        for size in sizes
    )
    ibbe_ratio = by["ibbe", hi]["revoke_ms"] / by["ibbe", lo]["revoke_ms"]
    separation = by["ibbe", hi]["revoke_ms"] / by["enclave_acl", hi]["revoke_ms"]
    gates = [
        {
            "name": "acl_revocation_flat",
            "detail": (
                "O(1) metadata: at every size an ACL revoke costs at most "
                f"{acl_norm:.2f}x an ACL membership add"
            ),
            "value": acl_norm,
            "passed": acl_norm <= 1.5,
        },
        {
            "name": "ibbe_revocation_grows",
            "detail": (
                f"O(|group|) re-key: {lo} -> {hi} members grew {ibbe_ratio:.2f}x "
                f"(group grew {hi / lo:.0f}x)"
            ),
            "value": ibbe_ratio,
            "passed": ibbe_ratio >= (hi / lo) / 5,
        },
        {
            "name": "backends_separate",
            "detail": f"at {hi} members IBBE revoke is {separation:.1f}x the ACL cost",
            "value": separation,
            "passed": separation >= 10.0,
        },
        {
            "name": "ibbe_rekeys_counted",
            "detail": "every IBBE cell counted its re-keys and wrapped envelopes",
            "value": min(
                by["ibbe", size]["counters"]["rekeys"] for size in sizes
            ),
            "passed": all(
                by["ibbe", size]["counters"]["rekeys"] >= OPS
                and by["ibbe", size]["counters"]["member_envelopes_wrapped"]
                >= size
                for size in sizes
            ),
        },
        {
            "name": "acl_no_crypto_work",
            "detail": "the ACL backend never re-keyed or re-encrypted anything",
            "value": max(
                by["enclave_acl", size]["counters"]["rekeys"]
                + by["enclave_acl", size]["counters"]["bytes_reencrypted"]
                for size in sizes
            ),
            "passed": all(
                by["enclave_acl", size]["counters"]["rekeys"] == 0
                and by["enclave_acl", size]["counters"]["bytes_reencrypted"] == 0
                for size in sizes
            ),
        },
    ]
    return gates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI sizes (1e2–1.6e3) instead of the full 1e2–1e5 sweep",
    )
    parser.add_argument("--out", default="BENCH_revocation.json")
    args = parser.parse_args()

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    cells: list[dict] = []
    for backend in BACKENDS:
        for members in sizes:
            cell = run_cell(backend, members)
            cells.append(cell)
            print(
                f"{backend:12s} members={members:7d}  "
                f"add={cell['add_ms']:9.3f}ms  "
                f"revoke={cell['revoke_ms']:10.3f}ms  "
                f"reconcile={cell['reconcile_ms']:9.3f}ms"
            )

    gates = check_gates(cells, sizes)
    result = {
        "workload": {
            "sizes": list(sizes),
            "files_granted": FILES,
            "file_size": FILE_SIZE,
            "ops_per_cell": OPS,
            "stack": "journal + whole_fs rollback + rote counters + metadata cache",
            "clock": "virtual (calibrated Azure WAN cost model)",
        },
        "cells": cells,
        "gates": gates,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")

    failed = [gate for gate in gates if not gate["passed"]]
    for gate in gates:
        marker = "PASS" if gate["passed"] else "FAIL"
        print(f"[{marker}] {gate['name']}: {gate['detail']}")
    print(f"wrote {args.out} ({len(cells)} cells)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
