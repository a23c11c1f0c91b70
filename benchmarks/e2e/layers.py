"""The outside-in per-layer ledger (the traced pass).

Each layer is bounded by public callables of ``src/repro`` that
:func:`install` wraps on the live classes for the traced rounds only.
``self`` time is a span's duration minus its direct children, summed per
layer; ``virt_*`` metrics are virtual-clock account deltas; counts come
from ``server.stats()`` deltas and from span counts.  Metric names are
final — BENCHMARK.json lists them and README.md says which end-to-end
metric each should move, on which workload.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.router import SeGShareCluster
from repro.core.client import SeGShareClient
from repro.core.dedup import DedupStore, DedupUpload
from repro.core.journal import WriteAheadJournal
from repro.core.request_handler import RequestHandler, UploadSink
from repro.core.rollback import FlatStoreGuard, RollbackGuard
from repro.crypto import default_pae
from repro.crypto.pae import Pae
from repro.netsim import Link
from repro.sgx.enclave import EnclaveHandle
from repro.sgx.protected_fs import ProtectedFs, ReadHandle, WriteHandle
from repro.sgx.switchless import SwitchlessQueue
from repro.storage.backends import InMemoryStore
from repro.store.engine import StorageEngine
from repro.tls.channel import TlsClient, TrustedTlsInterface

from . import stats
from .harness import BenchmarkFailure, Round, Setup, run_rounds, set_up, settle
from .spans import LAYER, NAME, PARENT, SIZE, Recorder, self_times
from .workloads import MB, OPCODES, World

#: Untraced rounds run first in the traced pass: the base of
#: ``trace.overhead_frac`` and of the 3-vs-1-replica replay.
BASELINE_ROUNDS = 4
#: Stop tracing at the next round boundary once this many spans are held.
MAX_SPANS = 600_000
#: The ledger must account for this share of the traced wall time.
MIN_CLOSURE = 0.90

CLIENT_OPCODES = ("GET", "LIST", "STAT", "PUT_FILE", "SET_PERM", "ADD_USER", "RMV_USER")

_AUTHZ_DECISIONS = ("auth_f", "auth_g", "exists_g")
_AUTHZ_UPDATES = ("create_group", "add_member", "remove_member", "add_group_owner", "delete_group")


def _arg_len(index: int) -> Any:
    return lambda result, args, kwargs: len(args[index])


def _result_len(result: Any, args: tuple, kwargs: dict) -> int:
    return len(result)


def _replica_index(result: Any, args: tuple, kwargs: dict) -> int:
    """The front door labels a dispatch ``OP@rN``; keep N (-1 elsewhere)."""
    _, _, member = kwargs.get("label", "").rpartition("@r")
    return int(member) if member.isdigit() else -1


def install(rec: Recorder, world: World) -> None:
    """Wrap every layer's public entry points; ``rec.remove()`` undoes it."""
    pae = type(default_pae())
    authz = type(world.servers[0].enclave.access)
    plan: list[tuple[str, type, tuple[str, ...]]] = [
        ("client", SeGShareClient, tuple(OPCODES)),
        ("tls.client", TlsClient, ("handshake", "request_full", "upload_full")),
        ("tls.enclave", TrustedTlsInterface, ("on_record",)),
        ("sgx", EnclaveHandle, ("call",)),
        ("handler", RequestHandler, ("handle", "put_file", "get", "open_upload")),
        ("handler", UploadSink, ("write", "finish")),
        ("authz", authz, _AUTHZ_DECISIONS + _AUTHZ_UPDATES + ("user_groups",)),
        ("engine", StorageEngine, ("lookup", "fill", "write_back", "quiesce")),
        (
            "journal",
            WriteAheadJournal,
            (
                "begin", "record", "commit", "rollback", "open_epoch", "begin_member",
                "commit_member", "rollback_member", "close_epoch", "seal_stamp",
                "read_committed_stamp",
            ),
        ),
        ("guard", RollbackGuard, ("verify_read", "on_write", "on_delete", "commit_batch")),
        ("guard", FlatStoreGuard, ("verify_read", "on_write", "on_delete", "commit_batch")),
        (
            "dedup",
            DedupStore,
            ("begin_upload", "put", "get", "open_read", "size", "add_reference", "release"),
        ),
        ("dedup", DedupUpload, ("write", "finish")),
        ("pfs", ProtectedFs, ("read_file", "write_file", "open_read", "open_write", "remove")),
        ("pfs", ReadHandle, ("read_chunk",)),
        ("pfs", WriteHandle, ("write", "close")),
        ("store", InMemoryStore, ("delete", "exists", "scan")),
        ("router", SeGShareCluster, ("handle", "put_file", "quiesce")),
    ]
    for layer, owner, attrs in plan:
        for attr in attrs:
            rec.install(owner, attr, layer)
    # Calls whose span also carries a size (bytes, or the replica routed to).
    rec.install(StorageEngine, "transaction", "engine", context=True)
    rec.install(SwitchlessQueue, "dispatch", "sgx", size=_replica_index)
    rec.install(Pae, "encrypt", "pae", size=_arg_len(2))
    rec.install(pae, "decrypt", "pae", size=_arg_len(2))
    rec.install(InMemoryStore, "put", "store", size=_arg_len(2))
    rec.install(InMemoryStore, "get", "store", size=_result_len)
    for attr in ("transfer_up", "transfer_down", "stream_up", "stream_down"):
        rec.install(Link, attr, "netsim", size=lambda result, args, kwargs: args[1])


# -- counters outside the spans --------------------------------------------------------


def _flatten(prefix: str, value: Any, out: dict[str, float]) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}{key}.", inner, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix[:-1]] = out.get(prefix[:-1], 0.0) + value


def counters(world: World) -> dict[str, float]:
    """Numeric leaves of every server's ``stats()``, summed over replicas,
    plus the links' byte and message counters and the clock accounts."""
    out: dict[str, float] = {}
    for server in world.servers:
        snapshot = server.stats()
        snapshot.pop("cluster", None)  # one shared front door, not per replica
        _flatten("", snapshot, out)
    out["link.bytes"] = sum(link.bytes_up + link.bytes_down for link in world.links)
    out["link.messages"] = sum(link.messages for link in world.links)
    for account, seconds in world.clock.accounts().items():
        out[f"account.{account}"] = seconds
    return out


def count_python_calls(setup: Setup) -> float:
    """Python-level calls per op over one round (``sys.setprofile``)."""
    calls = 0

    def profiler(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        (profiled,) = run_rounds(setup, rounds=1)
    finally:
        sys.setprofile(None)
    _require_correct([profiled])
    return calls / profiled.count


def _require_correct(rounds: list[Round]) -> None:
    failures = [text for r in rounds for text in r.failed]
    if failures:
        raise BenchmarkFailure(f"{len(failures)} wrong outcomes, e.g. {failures[:3]}")


def _virt_ops_per_s(rounds: list[Round]) -> float:
    return sum(r.count for r in rounds) / sum(r.virt_s for r in rounds)


# -- the traced pass ------------------------------------------------------------------


@dataclass
class SpanTotals:
    """What the ledger needs from the spans, in one pass over them."""

    own_total: float = 0.0
    layer_self: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    sizes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    journal_bytes: int = 0  # store puts issued from a journal span
    pfs_chunks: int = 0  # PAE calls made from a protected-FS span
    dedup_hits: int = 0
    routes: list[int] = field(default_factory=list)  # replica of each front-door dispatch


def summarise(spans: list[list]) -> SpanTotals:
    totals = SpanTotals()
    for span, self_s in zip(spans, self_times(spans)):
        name, layer = span[NAME], span[LAYER]
        totals.own_total += self_s
        totals.layer_self[layer] += self_s
        totals.calls[name] += 1
        totals.sizes[name] += span[SIZE]
        if span[PARENT] < 0:
            continue
        parent = spans[span[PARENT]]
        if name == "InMemoryStore.put" and parent[LAYER] == "journal":
            totals.journal_bytes += span[SIZE]
        elif layer == "pae" and parent[LAYER] == "pfs":
            totals.pfs_chunks += 1
        elif name == "ProtectedFs.remove" and parent[NAME] == "DedupUpload.finish":
            # A finished upload whose content is already indexed drops its
            # temporary object: that removal *is* the dedup hit.
            totals.dedup_hits += 1
        elif name == "SwitchlessQueue.dispatch" and parent[LAYER] == "router":
            totals.routes.append(span[SIZE])
    return totals


def measure_layers(
    workload_cls: Any, seed: int, seconds: float, rounds: int | None, trace_out: str | None
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Set up once, run untraced baseline rounds, then traced rounds."""
    window_begin = time.perf_counter()
    setup = set_up(workload_cls, seed)
    settle()
    world = setup.world
    warm_up = run_rounds(setup, rounds=1)
    baseline = run_rounds(setup, rounds=BASELINE_ROUNDS)

    rec = Recorder()
    traced: list[Round] = []
    deadline = window_begin + setup.total_s + 0.8 * seconds

    def more_rounds() -> bool:
        if rounds is not None:
            return len(traced) < rounds
        return not traced or (time.perf_counter() < deadline and len(rec.spans) < MAX_SPANS)

    before = counters(world)
    routed_before = dict(world.cluster.routed_by_member) if world.cluster else {}
    install(rec, world)
    try:
        while more_rounds():
            traced += run_rounds(setup, rounds=1, rec=rec, op_base=sum(r.count for r in traced))
    finally:
        rec.remove()
    after = counters(world)
    py_calls_per_op = count_python_calls(setup)
    _require_correct(warm_up + baseline + traced)

    delta = defaultdict(float, {k: after[k] - before.get(k, 0.0) for k in after})
    ops = sum(r.count for r in traced)
    user_bytes = sum(r.user_bytes for r in traced)
    uploads = sum(r.opcodes.count("PUT_FILE") for r in traced)
    traced_wall = sum(r.wall_s for r in traced)
    spans = rec.spans
    totals = summarise(spans)
    layer_self, calls, sizes, routes = totals.layer_self, totals.calls, totals.sizes, totals.routes

    def per_op(value: float) -> float:
        return value / ops

    def self_ms(layer: str, per: float = 0.0) -> float:
        return layer_self[layer] * 1e3 / (per or ops)

    def acct_ms(*accounts: str) -> float:
        return sum(delta[f"account.{a}"] for a in accounts) * 1e3 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    commits = delta["engine.commits"]
    decrypt = f"{type(default_pae()).__name__}.decrypt"
    pae_bytes = sizes["Pae.encrypt"] + sizes[decrypt]
    pae_calls = calls["Pae.encrypt"] + calls[decrypt]
    authz = type(world.servers[0].enclave.access).__name__
    m: dict[str, tuple[float, str]] = {}

    by_opcode_wall: dict[str, list[float]] = defaultdict(list)
    by_opcode_virt: dict[str, list[float]] = defaultdict(list)
    for r in traced:
        for opcode, wall_s, virt_s in zip(r.opcodes, r.op_wall_s, r.op_virt_s):
            by_opcode_wall[opcode].append(wall_s)
            by_opcode_virt[opcode].append(virt_s)
    tails = {}
    for opcode in CLIENT_OPCODES:
        wall, virt = by_opcode_wall[opcode], by_opcode_virt[opcode]
        q, tail_value = stats.tail(wall) if wall else (0.0, 0.0)
        tails[opcode] = (q, len(wall))
        m[f"client.{opcode}.wall_p50_ms"] = (stats.percentile(wall, 50) * 1e3 if wall else 0.0, "ms")
        m[f"client.{opcode}.wall_ptail_ms"] = (tail_value * 1e3, "ms")
        m[f"client.{opcode}.virt_p50_ms"] = (stats.percentile(virt, 50) * 1e3 if virt else 0.0, "ms")

    tls_users = [u for u in world.users.values() if isinstance(u, SeGShareClient)]
    m.update({
        "tls.client_self_ms_per_op": (self_ms("tls.client"), "ms"),
        "tls.enclave_self_ms_per_op": (self_ms("tls.enclave"), "ms"),
        "tls.records_per_op": (per_op(calls["TrustedTlsInterface.on_record"]), "count"),
        "tls.wire_bytes_per_user_byte": (ratio(delta["link.bytes"], user_bytes), "ratio"),
        "tls.handshake_wall_ms": (
            ratio(setup.phases["handshake_s"] * 1e3, len(tls_users)), "ms",
        ),
        "tls.virt_crypto_ms_per_op": (acct_ms("enclave-tls", "client-crypto"), "ms"),
        "netsim.virt_network_ms_per_op": (acct_ms("network"), "ms"),
        "netsim.messages_per_op": (per_op(delta["link.messages"]), "count"),
        "netsim.self_ms_per_op": (self_ms("netsim"), "ms"),
        "sgx.ecalls_per_op": (per_op(calls["EnclaveHandle.call"]), "count"),
        "sgx.self_ms_per_op": (self_ms("sgx"), "ms"),
        "sgx.virt_transitions_ms_per_op": (acct_ms("transitions"), "ms"),
        "sgx.switchless_fast_frac": (
            ratio(delta["switchless.fast"], delta["switchless.submitted"]), "fraction",
        ),
        "sgx.virt_worker_wait_ms_per_op": (acct_ms("worker-wait"), "ms"),
        "sgx.epc_page_swaps_per_op": (per_op(delta["epc.page_swaps"]), "count"),
        "handler.self_ms_per_op": (self_ms("handler"), "ms"),
        "handler.denied_frac": (per_op(sum(r.denied for r in traced)), "fraction"),
        "locks.virt_wait_ms_per_op": (per_op(delta["locks.wait_seconds"]) * 1e3, "ms"),
        "locks.contended_frac": (
            ratio(delta["locks.contended"], delta["locks.acquisitions"]), "fraction",
        ),
        "authz.self_ms_per_op": (self_ms("authz"), "ms"),
        "authz.decisions_per_op": (
            per_op(sum(calls[f"{authz}.{name}"] for name in _AUTHZ_DECISIONS)), "count",
        ),
        "authz.updates_per_op": (
            per_op(sum(calls[f"{authz}.{name}"] for name in _AUTHZ_UPDATES)), "count",
        ),
        "engine.self_ms_per_op": (self_ms("engine"), "ms"),
        "engine.commits_per_op": (per_op(commits), "count"),
        "engine.aborts_per_op": (per_op(delta["engine.aborts"]), "count"),
        "engine.flushed_ops_per_commit": (ratio(delta["engine.flushed_ops"], commits), "count"),
        "engine.members_per_epoch": (
            ratio(delta["group_commit.members_total"], delta["group_commit.epochs"]), "count",
        ),
        "engine.virt_commit_wait_ms_per_op": (acct_ms("commit-wait"), "ms"),
        "journal.self_ms_per_commit": (ratio(layer_self["journal"] * 1e3, commits), "ms"),
        "journal.bytes_per_user_byte": (ratio(totals.journal_bytes, user_bytes), "ratio"),
        "cache.hit_rate": (
            ratio(delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"]), "fraction",
        ),
        "cache.evictions_per_op": (per_op(delta["cache.evictions"]), "count"),
        "cache.oversize_skips_per_op": (per_op(delta["cache.oversize_skips"]), "count"),
        "cache.virt_ms_per_op": (acct_ms("metadata-cache"), "ms"),
        "coherence.syncs_per_op": (per_op(delta["coherence.syncs"]), "count"),
        "coherence.invalidations_per_op": (
            per_op(delta["coherence.invalidations_applied"]), "count",
        ),
        "coherence.full_discards": (delta["coherence.full_discards"], "count"),
        "guard.self_ms_per_op": (self_ms("guard"), "ms"),
        "guard.verifies_per_op": (
            per_op(delta["rollback_guard.verifies"] + delta["group_guard.verifies"]), "count",
        ),
        "guard.anchor_writes_per_commit": (
            ratio(
                delta["rollback_guard.anchor_writes"] + delta["group_guard.anchor_writes"], commits
            ),
            "count",
        ),
        "guard.nodes_flushed_per_commit": (
            ratio(
                delta["rollback_guard.nodes_flushed"] + delta["group_guard.nodes_flushed"], commits
            ),
            "count",
        ),
        "guard.virt_counter_ms_per_op": (acct_ms("counter"), "ms"),
        "guard.virt_shard_wait_ms_per_op": (acct_ms("guard-shard-wait"), "ms"),
        "dedup.self_ms_per_upload": (ratio(layer_self["dedup"] * 1e3, uploads), "ms"),
        "dedup.hit_rate": (ratio(totals.dedup_hits, calls["DedupUpload.finish"]), "fraction"),
        "dedup.virt_hashing_ms_per_op": (acct_ms("hashing"), "ms"),
        "pfs.self_ms_per_MB": (self_ms("pfs", user_bytes / MB), "ms/MB"),
        "pfs.chunks_per_op": (per_op(totals.pfs_chunks), "count"),
        "pfs.virt_crypto_ms_per_op": (acct_ms("pfs-crypto"), "ms"),
        "pfs.virt_io_ms_per_op": (acct_ms("pfs-io"), "ms"),
        "pae.self_ms_per_MB": (self_ms("pae", pae_bytes / MB), "ms/MB"),
        "pae.calls_per_op": (per_op(pae_calls), "count"),
        "pae.bytes_per_user_byte": (ratio(pae_bytes, user_bytes), "ratio"),
        "store.self_ms_per_op": (self_ms("store"), "ms"),
        "store.gets_per_op": (per_op(calls["InMemoryStore.get"]), "count"),
        "store.puts_per_op": (per_op(calls["InMemoryStore.put"]), "count"),
        "store.bytes_written_per_user_byte": (
            ratio(sizes["InMemoryStore.put"], user_bytes), "ratio",
        ),
        "store.bytes_read_per_user_byte": (ratio(sizes["InMemoryStore.get"], user_bytes), "ratio"),
    })

    # The front door: absent (all zero) off the cluster workload.
    routed = {}
    if world.cluster is not None:
        routed = {
            member: count - routed_before.get(member, 0)
            for member, count in world.cluster.routed_by_member.items()
        }
    switches = sum(1 for a, b in zip(routes, routes[1:]) if a != b)
    scaling = 0.0
    if world.cluster is not None:
        single = set_up(workload_cls, seed, replicas=1)
        replay = run_rounds(single, rounds=1 + BASELINE_ROUNDS)[1:]
        _require_correct(replay)
        scaling = _virt_ops_per_s(baseline) / _virt_ops_per_s(replay)
    m.update({
        "router.self_ms_per_op": (self_ms("router"), "ms"),
        "router.quiesces_per_op": (
            per_op(calls["StorageEngine.quiesce"]) if world.cluster else 0.0, "count",
        ),
        "router.route_switch_frac": (ratio(switches, max(len(routes) - 1, 0)), "fraction"),
        "router.load_imbalance": (
            ratio(max(routed.values(), default=0) * len(routed), sum(routed.values())), "ratio",
        ),
        "router.virt_scaling_3r_over_1r": (scaling, "ratio"),
    })

    baseline_per_op = sum(r.wall_s for r in baseline) / sum(r.count for r in baseline)
    closure = totals.own_total / traced_wall
    m.update({
        "setup.keygen_s": (setup.phases["keygen_s"], "s"),
        "setup.deploy_s": (setup.phases["deploy_s"], "s"),
        "setup.handshake_s": (setup.phases["handshake_s"], "s"),
        "setup.preload_s": (setup.phases["preload_s"], "s"),
        "trace.closure_frac": (closure, "fraction"),
        "trace.overhead_frac": (traced_wall / ops / baseline_per_op - 1.0, "fraction"),
        "trace.py_calls_per_op": (py_calls_per_op, "count"),
    })
    if closure < MIN_CLOSURE:
        raise BenchmarkFailure(
            f"trace.closure_frac {closure:.3f} < {MIN_CLOSURE}: the ledger does not account "
            "for the traced wall time"
        )
    if trace_out:
        rec.write_jsonl(trace_out)
    every = warm_up + baseline + traced
    report = {
        "attempted": sum(r.count for r in every) ,
        "failures": [],
        "schedule_sha256": setup.workload.schedule_sha256(),
        "traced_ops": ops,
        "spans": len(spans),
        "client_tails": {op: f"p{q:g} of n={n}" for op, (q, n) in tails.items() if n},
        "layer_self_share": {
            layer: seconds / traced_wall for layer, seconds in sorted(layer_self.items())
        },
        "trace_out": trace_out,
    }
    return m, report
