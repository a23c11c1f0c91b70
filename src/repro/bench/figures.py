"""Experiment drivers for every table and figure of the paper's §VII.

Each function deploys a fresh simulated world, runs the paper's workload,
and returns an :class:`ExperimentResult` whose rows mirror the paper's
plot series.  Latencies are virtual-clock seconds from the calibrated
Azure environment (see EXPERIMENTS.md for paper-vs-measured values).
"""

from __future__ import annotations

import time

from repro.baselines.hybrid_encryption import HybridEncryptionShare
from repro.baselines.webdav_plain import APACHE_PROFILE, NGINX_PROFILE, PlainWebDavServer
from repro.bench.harness import ExperimentResult, timed
from repro.bench.workloads import (
    KB,
    MB,
    binary_tree_paths,
    directories_of,
    flat_paths,
    pseudo_bytes,
    unique_bytes,
)
from repro.core.enclave_app import SeGShareOptions
from repro.core.features import format_table3
from repro.core.model import default_group
from repro.core.server import Deployment, deploy
from repro.crypto import rsa
from repro.crypto.pae import AesGcmPae, OpenSslGcmPae
from repro.netsim import azure_wan_env

#: One RSA key shared by all benchmark users: pure-Python keygen is slow
#: and key material is irrelevant to the measured latencies.
_SHARED_KEY: rsa.RsaPrivateKey | None = None


def shared_user_key() -> rsa.RsaPrivateKey:
    global _SHARED_KEY
    if _SHARED_KEY is None:
        _SHARED_KEY = rsa.generate_keypair(1024)
    return _SHARED_KEY


def _deploy(
    options: SeGShareOptions | None = None, jitter: float = 0.0, seed: int = 0
) -> Deployment:
    return deploy(env=azure_wan_env(jitter=jitter, seed=seed), options=options)


def exp2_noisy(runs: int = 100, jitter: float = 0.08, seed: int = 7) -> ExperimentResult:
    """E2 with the paper's measurement methodology: mean of ``runs``
    repetitions over a jittery WAN, reported with 95% CIs."""
    from repro.bench.harness import mean_ci95

    result = ExperimentResult(
        experiment="exp2-noisy",
        description=f"membership ops, mean of {runs} runs ± 95% CI (seconds)",
        columns=["op", "mean_s", "ci95_s"],
        notes="Methodology mirror of §VII-B: per-run fresh connection, noisy WAN.",
    )
    deployment = _deploy(jitter=jitter, seed=seed)
    identity = deployment.user_identity("owner", key=shared_user_key())
    clock = deployment.env.clock
    adds, revokes = [], []
    for i in range(runs):
        start = clock.now()
        deployment.connect(identity).add_user(f"u{i}", f"g{i}")
        adds.append(clock.now() - start)
        start = clock.now()
        deployment.connect(identity).remove_user(f"u{i}", f"g{i}")
        revokes.append(clock.now() - start)
    for op, samples in (("add", adds), ("revoke", revokes)):
        mean, ci = mean_ci95(samples)
        result.add(op=op, mean_s=mean, ci95_s=ci)
    return result


# -- E1: Fig. 3 — upload/download latency vs file size ------------------------------


def fig3(sizes_mb: tuple[int, ...] = (1, 10, 50, 100, 200)) -> ExperimentResult:
    """Mean latency of uploads and downloads: SeGShare vs Apache vs nginx."""
    result = ExperimentResult(
        experiment="fig3",
        description="up/download latency by file size (seconds, virtual clock)",
        columns=[
            "size_mb",
            "segshare_up", "segshare_down",
            "apache_up", "apache_down",
            "nginx_up", "nginx_down",
        ],
        notes=(
            "Paper (200 MB): SeGShare 2.39/2.17 s, Apache 4.74/2.62 s, "
            "nginx 1.84/0.93 s — SeGShare sits between the plaintext servers."
        ),
    )
    for size_mb in sizes_mb:
        data = pseudo_bytes(f"fig3/{size_mb}", size_mb * MB)
        row: dict[str, float] = {"size_mb": size_mb}

        deployment = _deploy(SeGShareOptions(hide_paths=True))
        client = deployment.new_user("u", key=shared_user_key())
        clock = deployment.env.clock
        row["segshare_up"] = timed(clock, lambda: client.upload("/f.dat", data))
        row["segshare_down"] = timed(clock, lambda: client.download("/f.dat"))

        for prefix, profile in (("apache", APACHE_PROFILE), ("nginx", NGINX_PROFILE)):
            env = azure_wan_env()
            server = PlainWebDavServer(env, profile)
            dav = server.connect()
            row[f"{prefix}_up"] = timed(env.clock, lambda: dav.put("/f.dat", data))
            row[f"{prefix}_down"] = timed(env.clock, lambda: dav.get("/f.dat"))
        result.add(**row)
    return result


# -- E2: §VII-B text — first membership add/revoke + independence claims ----------------


def exp2(repeats: int = 10) -> ExperimentResult:
    """Latency of adding/revoking a user's *first* group membership.

    Each measured operation runs on a fresh connection (handshake
    included), as in the paper's request-start-to-response-end latency.
    The second half varies stored files and file sizes to demonstrate the
    claimed independence.
    """
    result = ExperimentResult(
        experiment="exp2",
        description="membership add/revoke latency, first group (seconds)",
        columns=["scenario", "add_s", "revoke_s"],
        notes="Paper: 154.05 ms add, 153.40 ms revoke; independent of |rP|, |FS|, file sizes.",
    )

    def measure(deployment: Deployment, scenario: str) -> None:
        owner_identity = deployment.user_identity("owner", key=shared_user_key())
        clock = deployment.env.clock
        adds, revokes = [], []
        for i in range(repeats):
            start = clock.now()
            owner = deployment.connect(owner_identity)
            owner.add_user(f"user{i}", f"group{i}")
            adds.append(clock.now() - start)
            start = clock.now()
            owner = deployment.connect(owner_identity)
            owner.remove_user(f"user{i}", f"group{i}")
            revokes.append(clock.now() - start)
        result.add(
            scenario=scenario,
            add_s=sum(adds) / len(adds),
            revoke_s=sum(revokes) / len(revokes),
        )

    measure(_deploy(), "empty share")

    deployment = _deploy()
    seeder = deployment.new_user("owner", key=shared_user_key())
    for i in range(50):
        seeder.upload(f"/seed{i}.dat", unique_bytes("exp2", i, 10 * KB))
    measure(deployment, "50 stored files")

    deployment = _deploy()
    seeder = deployment.new_user("owner", key=shared_user_key())
    seeder.upload("/big.dat", pseudo_bytes("exp2/big", 20 * MB))
    for i in range(100):
        seeder.set_permission("/big.dat", default_group(f"px{i}"), "r")
    measure(deployment, "20 MB file, 100 permissions")
    return result


# -- E3: Fig. 4 — membership/permission ops vs prior count -------------------------------


def fig4(counts: tuple[int, ...] = (1, 10, 100, 1000), repeats: int = 5) -> ExperimentResult:
    """Add/revoke latency with N prior memberships (resp. permissions)."""
    result = ExperimentResult(
        experiment="fig4",
        description="dynamic group/permission operations vs prior count (seconds)",
        columns=["prior", "memb_add", "memb_revoke", "perm_add", "perm_revoke"],
        notes=(
            "Paper: 150.29–150.92 ms additions, 150.11–151.13 ms revocations up "
            "to 1000 memberships — logarithmic dependency, invisible in the total."
        ),
    )
    for prior in counts:
        deployment = _deploy()
        admin_identity = deployment.user_identity("admin", key=shared_user_key())
        admin = deployment.connect(admin_identity)
        clock = deployment.env.clock

        # Membership experiment: "bob" is already in `prior` groups.
        for i in range(prior):
            admin.add_user("bob", f"g{i}")
        admin.add_user("nobody", "extra")  # group exists; bob not a member
        def fresh_op(fn) -> float:
            """Connect + operate, as the paper measures (fresh request)."""
            start = clock.now()
            conn = deployment.connect(admin_identity)
            fn(conn)
            return clock.now() - start

        memb_add, memb_revoke = [], []
        for _ in range(repeats):
            memb_add.append(fresh_op(lambda c: c.add_user("bob", "extra")))
            memb_revoke.append(fresh_op(lambda c: c.remove_user("bob", "extra")))

        # Permission experiment: a file that `prior` groups can access.
        admin.upload("/shared.dat", pseudo_bytes("fig4", 10 * KB))
        for i in range(prior):
            admin.set_permission("/shared.dat", default_group(f"px{i}"), "r")
        perm_add, perm_revoke = [], []
        for _ in range(repeats):
            perm_add.append(fresh_op(lambda c: c.set_permission("/shared.dat", "extra", "rw")))
            perm_revoke.append(fresh_op(lambda c: c.set_permission("/shared.dat", "extra", "")))

        result.add(
            prior=prior,
            memb_add=sum(memb_add) / repeats,
            memb_revoke=sum(memb_revoke) / repeats,
            perm_add=sum(perm_add) / repeats,
            perm_revoke=sum(perm_revoke) / repeats,
        )
    return result


# -- E4: Fig. 5 — individual-file rollback protection overhead ------------------------------


def fig5(max_x: int = 8, file_size: int = 10 * KB) -> ExperimentResult:
    """Upload/download of one 10 kB file with 2^x − 1 files already stored.

    Four series: rollback protection {off, individual} × directory layout
    {binary tree, flat}.  Pre-population bypasses the network (direct
    handler calls); the measured request runs the full client path.
    """
    result = ExperimentResult(
        experiment="fig5",
        description="rollback-protection latency overhead (seconds)",
        columns=[
            "x", "files",
            "off_tree_up", "off_tree_down", "on_tree_up", "on_tree_down",
            "off_flat_up", "off_flat_down", "on_flat_up", "on_flat_down",
        ],
        notes=(
            "Paper: minimal download 111.65 ms; at 16,384 files 115.93 ms "
            "(tree) / 121.95 ms (flat); upload overhead negligible."
        ),
    )
    for x in range(0, max_x + 1):
        count = 2**x - 1
        row: dict[str, float] = {"x": x, "files": count}
        for mode_label, rollback in (("off", "off"), ("on", "individual")):
            for layout_label, layout_fn in (("tree", binary_tree_paths), ("flat", flat_paths)):
                deployment = _deploy(SeGShareOptions(rollback=rollback))
                handler = deployment.server.enclave.handler
                paths = layout_fn(count)
                for directory in directories_of(paths + [f"/m{x}.dat"]):
                    handler.put_dir("seeder", directory)
                for i, path in enumerate(paths):
                    handler.put_file("seeder", path, unique_bytes("fig5", i, file_size))
                identity = deployment.user_identity("u", key=shared_user_key())
                clock = deployment.env.clock
                data = pseudo_bytes("fig5/probe", file_size)
                # Fresh connection per measured request, as in the paper.
                start = clock.now()
                client = deployment.connect(identity)
                client.upload(f"/m{x}.dat", data)
                up = clock.now() - start
                start = clock.now()
                client = deployment.connect(identity)
                client.download(f"/m{x}.dat")
                down = clock.now() - start
                row[f"{mode_label}_{layout_label}_up"] = up
                row[f"{mode_label}_{layout_label}_down"] = down
        result.add(**row)
    return result


# -- E5: §VII-B — storage overhead -------------------------------------------------------------


def storage(sizes_mb: tuple[int, ...] = (10, 200), acl_entries: tuple[int, ...] = (95, 1119)) -> ExperimentResult:
    """Encrypted storage per file vs plaintext size and ACL size."""
    result = ExperimentResult(
        experiment="storage",
        description="storage overhead of encrypted file + ACL",
        columns=["size_mb", "acl_entries", "plain_bytes", "stored_bytes", "overhead_pct"],
        notes=(
            "Paper: 10 MB with 95/1119 entries -> 1.12 %/1.48 %; "
            "200 MB -> 1.05 %/1.06 %."
        ),
    )
    for size_mb in sizes_mb:
        for entries in acl_entries:
            deployment = _deploy()
            handler = deployment.server.enclave.handler
            manager = deployment.server.enclave.manager
            data = pseudo_bytes(f"storage/{size_mb}", size_mb * MB)
            handler.put_file("owner", "/f.dat", data)
            for i in range(entries - 1):  # the owner entry is the first
                handler.set_permission("owner", "/f.dat", default_group(f"g{i}"), "r")
            stored = manager.content_stored_size("/f.dat")
            from repro.core.acl import acl_path

            stored += manager.content.pfs.stored_size(manager._sp(acl_path("/f.dat")))
            result.add(
                size_mb=size_mb,
                acl_entries=entries,
                plain_bytes=len(data),
                stored_bytes=stored,
                overhead_pct=round(100 * (stored - len(data)) / len(data), 3),
            )
    return result


# -- E6/E7: Table III and the TCB report --------------------------------------------------------


def table3() -> str:
    return format_table3()


def tcb() -> str:
    deployment = _deploy()
    report = deployment.server.enclave.tcb_report()
    return (
        report.format()
        + "\n\nPaper: 8441 LoC total (8102 + TLS glue), excluding the Intel SGX SDK."
    )


# -- A1: ablation — revocation cost vs the hybrid-encryption baseline ----------------------------


def ablation_revocation(
    file_counts: tuple[int, ...] = (10, 100, 500), file_size: int = 100 * KB
) -> ExperimentResult:
    """Group-membership revocation: SeGShare vs eager/lazy HE."""
    result = ExperimentResult(
        experiment="ablation-revocation",
        description="membership revocation latency vs files in group (seconds)",
        columns=["files", "segshare", "he_eager", "he_lazy", "lazy_window"],
        notes=(
            "SeGShare revokes in O(1) file updates; eager HE re-encrypts every "
            "group file; lazy HE is fast but leaves old keys working (window)."
        ),
    )
    for count in file_counts:
        deployment = _deploy()
        admin = deployment.new_user("admin", key=shared_user_key())
        clock = deployment.env.clock
        admin.add_user("victim", "team")
        for i in range(count):
            admin.upload(f"/t{i}.dat", unique_bytes("rev", i, file_size))
            admin.set_permission(f"/t{i}.dat", "team", "rw")
        seg = timed(clock, lambda: admin.remove_user("victim", "team"))

        row = {"files": count, "segshare": seg}
        for label, lazy in (("he_eager", False), ("he_lazy", True)):
            env = azure_wan_env()
            share = HybridEncryptionShare(clock=env.clock, lazy_revocation=lazy)
            share.create_group("team", {"admin", "victim"})
            for i in range(count):
                share.upload("admin", f"/t{i}.dat", unique_bytes("rev", i, file_size))
                share.grant_group(f"/t{i}.dat", "team")
            old_key = share.leak_file_key("victim", "/t0.dat")
            row[label] = timed(env.clock, lambda: share.remove_group_member("team", "victim"))
            if lazy:
                row["lazy_window"] = share.can_decrypt_with_old_key("/t0.dat", old_key)
        result.add(**row)
    return result


# -- A2: ablation — bucket-hash optimization ------------------------------------------------------


def ablation_mset(
    file_count: int = 511, buckets: tuple[int, ...] = (1, 16, 64, 256)
) -> ExperimentResult:
    """Download latency under rollback protection vs bucket count.

    ``buckets=1`` degenerates to the paper's first optimization only
    (multiset hashes without bucketing): every validation rehashes all
    siblings.  More buckets shrink the per-level validation set.
    """
    result = ExperimentResult(
        experiment="ablation-mset",
        description=f"flat layout, {file_count} files: download latency vs bucket count",
        columns=["buckets", "download_s", "upload_s"],
    )
    for bucket_count in buckets:
        deployment = _deploy(
            SeGShareOptions(rollback="individual", rollback_buckets=bucket_count)
        )
        handler = deployment.server.enclave.handler
        for i, path in enumerate(flat_paths(file_count)):
            handler.put_file("seeder", path, unique_bytes("mset", i, 10 * KB))
        client = deployment.new_user("u", key=shared_user_key())
        clock = deployment.env.clock
        up = timed(clock, lambda: client.upload("/probe.dat", pseudo_bytes("mset/p", 10 * KB)))
        down = timed(clock, lambda: client.download("/probe.dat"))
        result.add(buckets=bucket_count, download_s=down, upload_s=up)
    return result


# -- A3: ablation — deduplication savings and PAE throughput ----------------------------------------


def ablation_dedup(
    file_count: int = 50, file_size: int = 256 * KB, duplicate_ratios: tuple[float, ...] = (0.0, 0.5, 0.9)
) -> ExperimentResult:
    """Untrusted storage consumed with and without deduplication."""
    result = ExperimentResult(
        experiment="ablation-dedup",
        description=f"{file_count} files x {file_size // KB} kB: stored bytes vs duplicate ratio",
        columns=["dup_ratio", "plain_bytes", "stored_dedup", "stored_plainenc", "savings_pct"],
    )
    for ratio in duplicate_ratios:
        unique = max(1, round(file_count * (1 - ratio)))
        stored = {}
        for label, enable in (("stored_dedup", True), ("stored_plainenc", False)):
            deployment = _deploy(SeGShareOptions(enable_dedup=enable))
            handler = deployment.server.enclave.handler
            for i in range(file_count):
                content = unique_bytes("dedup", i % unique, file_size)
                handler.put_file("owner", f"/d{i}.dat", content)
            totals = deployment.server.enclave.manager.stored_bytes()
            stored[label] = totals["content"] + totals["dedup"]
        result.add(
            dup_ratio=ratio,
            plain_bytes=file_count * file_size,
            stored_dedup=stored["stored_dedup"],
            stored_plainenc=stored["stored_plainenc"],
            savings_pct=round(
                100 * (1 - stored["stored_dedup"] / stored["stored_plainenc"]), 2
            ),
        )
    return result


def ablation_rotation(
    file_counts: tuple[int, ...] = (10, 50, 200), file_size: int = 100 * KB
) -> ExperimentResult:
    """Root-key rotation cost vs revocation cost.

    The contrast that motivates SeGShare's enforcement-based design:
    revocation is O(1) in the data, while a full cryptographic re-key —
    which HE-style systems effectively pay on *every* revocation — is
    O(total data).  Rotation exists as a deliberate offline operation.
    """
    from repro.core.rotation import ca_authorized_rotation

    result = ExperimentResult(
        experiment="ablation-rotation",
        description="root-key rotation vs membership revocation (seconds)",
        columns=["files", "total_mb", "revoke_s", "rotate_s", "ratio"],
        notes="Rotation re-encrypts everything; revocation touches one member list.",
    )
    for count in file_counts:
        deployment = _deploy(SeGShareOptions(enable_dedup=True))
        admin = deployment.new_user("admin", key=shared_user_key())
        admin.add_user("victim", "team")
        for i in range(count):
            admin.upload(f"/r{i}.dat", unique_bytes("rot", i, file_size))
        clock = deployment.env.clock
        revoke = timed(clock, lambda: admin.remove_user("victim", "team"))
        rotate = timed(
            clock, lambda: ca_authorized_rotation(deployment.ca, deployment.server)
        )
        result.add(
            files=count,
            total_mb=round(count * file_size / MB, 1),
            revoke_s=revoke,
            rotate_s=rotate,
            ratio=round(rotate / revoke, 1),
        )
    return result


def crypto_throughput(size: int = 4 * MB) -> ExperimentResult:
    """Real wall-clock throughput of the two PAE backends."""
    result = ExperimentResult(
        experiment="crypto",
        description=f"PAE backend throughput over {size // MB} MB (real time)",
        columns=["backend", "enc_mb_s", "dec_mb_s"],
        notes="Both rows are AES-128-GCM: OpenSSL is the default, pure Python the reference.",
    )
    key = bytes(16)
    for name, backend, payload in (
        ("aes-gcm (openssl)", OpenSslGcmPae(), pseudo_bytes("ct", size)),
        ("aes-gcm (pure py)", AesGcmPae(), pseudo_bytes("ct", 64 * KB)),
    ):
        start = time.perf_counter()
        blob = backend.encrypt(key, payload)
        enc_time = time.perf_counter() - start
        start = time.perf_counter()
        backend.decrypt(key, blob)
        dec_time = time.perf_counter() - start
        result.add(
            backend=name,
            enc_mb_s=round(len(payload) / MB / enc_time, 2),
            dec_mb_s=round(len(payload) / MB / dec_time, 2),
        )
    return result
