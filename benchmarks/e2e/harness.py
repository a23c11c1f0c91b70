"""Set-up, round execution, and the end-to-end metrics (the untraced pass).

Two clocks side by side: ``time.perf_counter`` (what this Python pays)
and the deployment's virtual clock (what the paper's hardware would
pay).  A run is a sequence of fixed-size *rounds*:

* round 0 is warm-up and is discarded;
* rounds 1..``virt_rounds`` always run — every virtual-clock metric is
  taken over exactly this window, so it repeats bit-for-bit for a seed
  however fast the machine is;
* further rounds run until ``--seconds`` is used up; wall metrics use
  every round but the warm-up and are medians over rounds.

Outcomes are verified against the oracle after each round's timed region.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import AccessDenied, ReproError

from . import stats
from .calibration import Calibration
from .oracle import check
from .spans import Recorder
from .workloads import MB, Keys, Op, Workload, World

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Samples per block for wall percentiles: p95 keeps >= 10 samples beyond it.
BLOCK_SAMPLES = 200

#: Accounts that are the client's or the wire's, not the server's.
_CLIENT_SIDE_ACCOUNTS = ("network", "client-crypto", "client-backoff")


class BenchmarkFailure(Exception):
    """The run is not a valid measurement (wrong outcome, open ledger)."""


@dataclass
class Round:
    """One executed round: per-op samples plus the round's own totals."""

    opcodes: list[str]
    wall_s: float
    virt_s: float
    op_wall_s: list[float]
    op_virt_s: list[float]
    #: Payload bytes users moved up or down (expected-DENIED ops move none).
    user_bytes: int
    denied: int
    failed: list[str]

    @property
    def count(self) -> int:
        return len(self.opcodes)


def _call(world: World, op: Op) -> tuple[str, Any]:
    try:
        return "ok", getattr(world.users[op.user], op.kind)(*op.args)
    except AccessDenied:
        return "denied", None
    except ReproError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def execute(world: World, ops: list[Op], rec: Recorder | None = None, op_base: int = 0) -> Round:
    """Run one round through the world's runner and verify every outcome."""
    count = len(ops)
    walls = [0.0] * count
    virts = [0.0] * count
    outcomes: list[Any] = [None] * count
    clock = world.clock

    def run_op(i: int) -> None:
        if rec is not None:
            rec.op_id = op_base + i
        started = time.perf_counter()
        outcomes[i] = _call(world, ops[i])
        walls[i] = time.perf_counter() - started

    if world.runner == "serial":
        virt_begin = clock.now()
        wall_begin = time.perf_counter()
        for i in range(count):
            before = clock.now()
            run_op(i)
            virts[i] = clock.now() - before
        wall_s = time.perf_counter() - wall_begin
        virt_s = clock.now() - virt_begin
    else:
        # Closed loop: each stream's next op arrives when its previous one
        # completes, in virtual time; the driver interleaves the streams.
        streams: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            streams.setdefault(op.client, []).append(i)
        order = sorted(streams)

        def thunk(i: int) -> Any:
            def run(arrival: float | None = None) -> None:
                if arrival is not None:
                    world.users[ops[i].user].arrival = arrival
                run_op(i)

            return run

        clients = [[thunk(i) for i in streams[c]] for c in order]
        wall_begin = time.perf_counter()
        result = world.driver.run(clients)
        wall_s = time.perf_counter() - wall_begin
        virt_s = result.makespan
        for record in result.ops:
            virts[streams[order[record.client]][record.index]] = record.latency
    if rec is not None:
        rec.op_id = None

    failed = [
        f"{op.user}.{op.kind}{op.args[:1]}: expected {op.expect.kind}, got {outcome[0]}"
        + (f" ({outcome[1]})" if outcome[0] == "error" else "")
        for op, outcome in zip(ops, outcomes)
        if not check(op.expect, outcome)
    ]
    # Ops are not kept: their upload contents would pin every round's bytes.
    return Round(
        opcodes=[op.opcode for op in ops],
        wall_s=wall_s,
        virt_s=virt_s,
        op_wall_s=walls,
        op_virt_s=virts,
        user_bytes=sum(op.user_bytes for op in ops),
        denied=sum(1 for op in ops if op.expect.kind == "denied"),
        failed=failed,
    )


@dataclass
class Setup:
    workload: Workload
    world: World
    phases: dict[str, float]

    @property
    def total_s(self) -> float:
        return sum(self.phases.values())


def set_up(workload_cls: type[Workload], seed: int, **overrides: Any) -> Setup:
    """Everything before the first measured op, timed by phase."""
    marks = [time.perf_counter()]
    workload = workload_cls(seed)
    for name, value in overrides.items():
        setattr(workload, name, value)
    keys = Keys.generate()
    marks.append(time.perf_counter())
    world = workload.deploy(keys)
    marks.append(time.perf_counter())
    world.users = world.connect(workload.user_ids())
    marks.append(time.perf_counter())
    loaded = _preload(world, workload)
    marks.append(time.perf_counter())
    if loaded.failed:
        raise BenchmarkFailure(f"preload failed: {loaded.failed[:3]}")
    names = ("keygen_s", "deploy_s", "handshake_s", "preload_s")
    return Setup(workload, world, {n: b - a for n, a, b in zip(names, marks, marks[1:])})


def _preload(world: World, workload: Workload) -> Round:
    """Preload is issued op by op on the base timeline, whatever the runner."""
    runner = world.runner
    world.runner = "serial"
    try:
        return execute(world, workload.preload())
    finally:
        world.runner = runner


def run_rounds(
    setup: Setup,
    rounds: int | None = None,
    seconds: float | None = None,
    rec: Recorder | None = None,
    op_base: int = 0,
    calibration: Calibration | None = None,
) -> list[Round]:
    """Run ``rounds`` rounds, or as many as fit in ``seconds`` (at least one).

    With a ``calibration``, the machine-speed kernel is timed in the gap
    before every round and once after the last.
    """
    out: list[Round] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while len(out) < rounds if rounds is not None else (not out or time.perf_counter() < deadline):
        ops = setup.workload.next_round()
        if calibration is not None:
            calibration.sample()
        out.append(execute(setup.world, ops, rec, op_base))
        op_base += len(ops)
    if calibration is not None:
        calibration.sample()
    return out


def settle() -> None:
    """Collect set-up garbage and move the survivors out of the GC's sight,
    so collections during measured rounds do not rescan the preloaded world."""
    gc.collect()
    gc.freeze()


def server_accounts(world: World) -> float:
    """Virtual seconds charged so far to everything but the client and the wire."""
    return sum(
        seconds
        for account, seconds in world.clock.accounts().items()
        if account not in _CLIENT_SIDE_ACCOUNTS
    )


def pooled(rounds: list[Round], attr: str) -> list[float]:
    return [sample for r in rounds for sample in getattr(r, attr)]


def blocks(rounds: list[Round], min_samples: int = BLOCK_SAMPLES) -> list[list[Round]]:
    """Consecutive rounds grouped so every block holds >= ``min_samples`` ops
    (a short tail joins the last block)."""
    out: list[list[Round]] = [[]]
    for r in rounds:
        if sum(x.count for x in out[-1]) >= min_samples:
            out.append([])
        out[-1].append(r)
    if len(out) > 1 and sum(x.count for x in out[-1]) < min_samples:
        out[-2].extend(out.pop())
    return out


def wall_percentile(rounds: list[Round], q: float) -> float:
    """Median over blocks of each block's ``q``-th percentile of per-op wall
    latency.  Machine noise comes in phases lasting many ops; pooled, a slow
    phase owns the whole upper tail, while here it spoils only its own blocks."""
    return stats.median(
        [stats.percentile(pooled(block, "op_wall_s"), q) for block in blocks(rounds)]
    )


def measure_end_to_end(
    workload_cls: type[Workload], seed: int, seconds: float, rounds: int | None
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """The untraced pass: ``(metrics, report)``.

    ``rounds`` (the determinism check's fixed size) replaces both the
    virtual window and the timed tail with exactly that many rounds.
    """
    calibration = Calibration()
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        calibration.sample()
        setup = set_up(workload_cls, seed)
        setup_times.append(setup.total_s)
        calibration.sample()
        if repeat < SETUP_REPEATS - 1:
            del setup  # only the last world is measured
            gc.collect()
    setup_speed = calibration.take_factor()
    settle()
    workload, world = setup.workload, setup.world

    window_begin = time.perf_counter()
    warm_up = run_rounds(setup, rounds=1)
    accounts_before = server_accounts(world)
    fixed = run_rounds(setup, rounds=rounds or workload.virt_rounds, calibration=calibration)
    server_s = server_accounts(world) - accounts_before
    stored_ratio = world.stored_bytes() / workload.model.live_bytes
    extra = []
    if rounds is None:
        remaining = seconds - (time.perf_counter() - window_begin)
        if remaining > 0:
            extra = run_rounds(setup, seconds=remaining, calibration=calibration)
    measured = fixed + extra
    # Wall metrics are reported at nominal machine speed: see calibration.py.
    speed = calibration.take_factor()

    virt_samples = pooled(fixed, "op_virt_s")
    virt_ops = len(virt_samples)
    metrics = {
        "setup_s": (stats.median(setup_times) / setup_speed, "s"),
        "wall_ops_per_s": (stats.median([r.count / r.wall_s for r in measured]) * speed, "ops/s"),
        "wall_p50_ms": (wall_percentile(measured, 50) * 1e3 / speed, "ms"),
        "wall_p95_ms": (wall_percentile(measured, 95) * 1e3 / speed, "ms"),
        "wall_user_MB_per_s": (
            stats.median([r.user_bytes / MB / r.wall_s for r in measured]) * speed,
            "MB/s",
        ),
        "virt_ops_per_s": (virt_ops / sum(r.virt_s for r in fixed), "ops/s"),
        "virt_tail_ms": (stats.percentile(virt_samples, workload.virt_tail) * 1e3, "ms"),
        "virt_server_ms_per_op": (server_s / virt_ops * 1e3, "ms"),
        "stored_bytes_per_user_byte": (stored_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    every = warm_up + measured
    report = {
        "attempted": sum(r.count for r in every),
        "failures": [text for r in every for text in r.failed],
        "schedule_sha256": workload.schedule_sha256(),
        "rounds": len(measured),
        "wall_samples": sum(r.count for r in measured),
        "wall_blocks": len(blocks(measured)),
        "virt_samples": virt_ops,
        "virt_tail_percentile": workload.virt_tail,
        "virt_tail_beyond": stats.samples_beyond(virt_ops, workload.virt_tail),
        "setup_times_s": setup_times,
        "machine_slowdown_setup": setup_speed,
        "machine_slowdown_rounds": speed,
        "raw_round_ops_per_s_quartiles": stats.quartiles(
            [r.count / r.wall_s for r in measured]
        ),
        "denied_checked": sum(r.denied for r in every),
    }
    return metrics, report
