"""Closed-loop multi-client driver over the parallel virtual clock.

The paper's server is multi-threaded: SGX SDK switchless workers pull
requests off a shared queue, so N concurrent clients see throughput
scale with the worker pool until they contend on shared state.  This
driver reproduces that shape deterministically: client request streams
are interleaved in *virtual* time on a :class:`~repro.netsim.clock.
ParallelClock` — Python still executes one request at a time (in global
arrival order), but each request runs on its own track through
:meth:`~repro.sgx.switchless.SwitchlessQueue.dispatch`, so overlapping
independent requests cost the max, not the sum, of their durations,
while lock waits, journal commits, and counter increments rendezvous on
the shared serialization points.

Closed-loop means each simulated client issues its next request the
moment its previous one completes — the standard throughput-benchmark
client model, and the one the paper's `wrk`-style load generators use.

Because execution order *is* arrival order, the concurrent run is
serializable by construction; the linearizability property test
(tests/core/test_linearizability.py) checks that the final state equals
a fresh serial run's over many seeded schedules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.netsim import Link, NetworkEnv, ParallelClock
from repro.netsim.network import AZURE_WAN, LinkSpec

#: Virtual-time accounts that are *waits* on serialization points rather
#: than useful work; the bench reports them as the contention breakdown.
WAIT_ACCOUNTS = (
    "lock-wait",
    "worker-wait",
    "commit-wait",
    "counter-wait",
    "anchor-wait",
    "guard-shard-wait",
    "serialize-wait",
)


def parallel_env(spec: LinkSpec = AZURE_WAN, seed: int = 0) -> NetworkEnv:
    """A :class:`NetworkEnv` whose clock supports parallel tracks."""
    clock = ParallelClock()
    return NetworkEnv(clock=clock, link=Link(clock, spec, seed=seed))


@dataclass
class OpRecord:
    """One completed client operation, with its track's timings."""

    client: int
    index: int
    label: str
    start: float
    end: float
    accounts: dict[str, float]

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class DriverResult:
    """A full multi-client run: per-op records plus aggregate shape."""

    ops: list[OpRecord]
    makespan: float
    #: Sum of per-op latencies — the *work* (+waits); > makespan iff
    #: operations genuinely overlapped.
    busy_seconds: float = field(init=False)
    wait_breakdown: dict[str, float] = field(init=False)
    #: Seconds each serial resource was held during the run
    #: (:meth:`~repro.netsim.clock.SimClock.holds`), waits excluded.
    serial_holds: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.busy_seconds = sum(op.latency for op in self.ops)
        self.wait_breakdown = {
            account: round(
                sum(op.accounts.get(account, 0.0) for op in self.ops), 9
            )
            for account in WAIT_ACCOUNTS
        }

    @property
    def throughput(self) -> float:
        """Completed operations per virtual second of makespan."""
        if self.makespan <= 0:
            return float("inf")
        return len(self.ops) / self.makespan

    @property
    def mean_latency(self) -> float:
        return self.busy_seconds / len(self.ops) if self.ops else 0.0

    def wait_seconds(self) -> float:
        return sum(self.wait_breakdown.values())

    def summary(self) -> dict[str, Any]:
        return {
            "ops": len(self.ops),
            "makespan_s": round(self.makespan, 6),
            "throughput_ops_per_s": round(self.throughput, 3),
            "mean_latency_s": round(self.mean_latency, 6),
            "busy_seconds": round(self.busy_seconds, 6),
            "wait_breakdown_s": self.wait_breakdown,
            "serial_hold_s": self.serial_holds,
        }


def run_closed_loop(
    clock: ParallelClock,
    clients: list[list[Any]],
    issue: Callable[[int, int, float], OpRecord],
    quiesce: Callable[[], None],
) -> DriverResult:
    """The closed-loop arrival loop of both drivers.

    ``clients[c]`` is client ``c``'s ordered stream of operations; the
    stream is closed-loop (op ``k+1`` arrives when op ``k`` completes).
    Operations across clients are issued in global arrival order, ties
    broken by client index — deterministic, so a given schedule is
    exactly reproducible.  ``issue(c, k, arrival)`` runs one operation
    and returns its record.  ``quiesce`` closes any open commit epoch:
    before the measured window, so the deferred guard flush and counter
    increments of setup traffic are not billed to this run; and after
    the last write, whose flush is part of the work and belongs in the
    makespan, not in the next measurement.
    """
    quiesce()
    begin, held = clock.now(), clock.holds()
    # (arrival, client, op_index) — heap pops give global arrival order.
    ready = [(begin, c, 0) for c in range(len(clients)) if clients[c]]
    heapq.heapify(ready)
    records: list[OpRecord] = []
    while ready:
        arrival, c, k = heapq.heappop(ready)
        record = issue(c, k, arrival)
        records.append(record)
        if k + 1 < len(clients[c]):
            heapq.heappush(ready, (record.end, c, k + 1))
    quiesce()
    holds = {
        name: round(seconds - held.get(name, 0.0), 6)
        for name, seconds in sorted(clock.holds().items())
        if seconds > held.get(name, 0.0)
    }
    return DriverResult(ops=records, makespan=clock.now() - begin, serial_holds=holds)


class ConcurrentDriver:
    """Drive N closed-loop clients through a server's switchless pool.

    ``server`` must have been deployed on a :func:`parallel_env` — the
    driver refuses a serial clock, since dispatching onto it would
    silently degrade to the single-flow model and report fake scaling.
    """

    def __init__(self, server: Any) -> None:
        clock = server.env.clock
        if not isinstance(clock, ParallelClock):
            raise TypeError(
                "ConcurrentDriver needs a server on a ParallelClock "
                "(build its NetworkEnv with repro.bench.concurrency.parallel_env)"
            )
        self._server = server
        self._clock = clock
        self._queue = server.switchless

    def run(self, clients: list[list[Callable[[], Any]]]) -> DriverResult:
        """Run every client's thunk list to completion (see :func:`run_closed_loop`)."""
        queue = self._queue

        def issue(c: int, k: int, arrival: float) -> OpRecord:
            queue.dispatch(clients[c][k], arrival=arrival, label=f"c{c}/op{k}")
            track = queue.last_track
            assert track is not None and track.end is not None
            return OpRecord(
                client=c,
                index=k,
                label=track.label,
                start=track.start,
                end=track.end,
                accounts=dict(track.accounts),
            )

        engine = getattr(getattr(self._server, "enclave", None), "engine", None)
        quiesce = engine.quiesce if engine is not None else lambda: None
        return run_closed_loop(self._clock, clients, issue, quiesce)
