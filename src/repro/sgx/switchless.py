"""Switchless calls (Section II-A).

Regular ECALLs/OCALLs save and restore CPU state — expensive.  The SGX
SDK's switchless mode replaces the transition with a task written to a
shared untrusted buffer that worker threads poll.  SeGShare uses
switchless calls "for all network and file traffic".

The pool prices every switchless ECALL, through one entry,
:meth:`SwitchlessQueue.dispatch`: a handle loaded with the pool
(:meth:`~repro.sgx.enclave.SgxPlatform.load`) enters each ECALL through
it, and harnesses that skip the client dispatch their handler calls
through it.  One rule decides how a call runs:

* On a :class:`~repro.netsim.clock.ParallelClock`, a call that arrives
  on a request's track, or that carries an explicit ``arrival``, runs on
  a worker's own track and pays only the pickup: a spinning worker's
  switchless call, a parked worker's wake (a full transition), or a
  queue for the earliest busy worker.  Up to ``workers`` such tasks run
  concurrently, so the pool bounds request parallelism rather than
  merely repricing calls.
* Any other call runs synchronously on the caller's timeline and pays
  one switchless call: every call on a serial clock, a call on a
  parallel clock's base timeline (set-up, preload), and a call made on
  one of the pool's own worker tracks (the front door's nested
  ``cluster_begin_request``).

What a worker serves is one ECALL, as in the paper's Fig. 1: the
untrusted TLS interface forwards each record into the enclave through
the pool (:class:`~repro.core.server.SeGShareServer`), so the worker's
span is the enclave's work on that record.  The client's TLS work and
both network legs run on the client's own track, and no worker is held
through them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.netsim.clock import ParallelClock, SimClock, TrackClock
from repro.sgx.costmodel import SgxCostModel


@dataclass
class SwitchlessStats:
    #: Every call through :meth:`SwitchlessQueue.dispatch`.
    submitted: int = 0
    #: Calls priced as a switchless call: synchronous ones, spins and queued.
    fast: int = 0
    #: Tasks run on a worker's own track.
    dispatched: int = 0
    #: Virtual seconds dispatched tasks spent queued for a free worker.
    worker_wait_s: float = 0.0
    #: Adaptive-pool counters: tasks picked up by a spinning worker, idle
    #: workers parked past the spin window, parked workers woken (a full
    #: transition — the pool growing back, and the SDK's fallback), and
    #: tasks queued behind a busy worker (handed off without a transition).
    spins: int = 0
    parks: int = 0
    wakes: int = 0
    queued: int = 0
    #: Dispatches stamped earlier than one already processed, and the
    #: largest such gap in virtual seconds (see :meth:`SwitchlessQueue.dispatch`).
    out_of_order: int = 0
    out_of_order_max_s: float = 0.0


class SwitchlessQueue:
    """A pool of untrusted (or trusted) worker threads serving calls.

    ``workers`` mirrors the SDK's ``uworkers``/``tworkers`` setting.
    :meth:`dispatch` runs a callable as a switchless call, on a worker's
    track or synchronously (see the module docstring).  A dispatched task
    is one ECALL (or, where a harness skips the client, one handler
    call): a worker is held from pickup to the task's return, never
    across the client's network legs.  Dispatches must come in time order
    for the pool's bookkeeping to be exact; ``stats.out_of_order`` counts
    those that do not.
    """

    def __init__(
        self,
        clock: SimClock,
        costs: SgxCostModel,
        workers: int = 4,
        spin_window: float = 100e-6,
    ) -> None:
        if workers < 1:
            raise ValueError("the worker pool needs at least one worker")
        self._clock = clock
        #: Decided once: on a serial clock every call is synchronous.
        self._parallel = clock if isinstance(clock, ParallelClock) else None
        self._costs = costs
        self.workers = workers
        #: How long an idle worker spins before parking (the SDK's
        #: retries_before_sleep, expressed in virtual time).  The live
        #: pool shrinks by parking idle workers and grows back by waking
        #: them, a wake costing a full transition.
        self.spin_window = spin_window
        self.stats = SwitchlessStats()
        #: Lazily seeded on the first dispatch: the pool spins up when
        #: service starts, not at t=0 (setup work predates traffic).
        self._primed = False
        #: Min-heap of worker release times; grows to ``workers`` entries.
        self._worker_free: list[float] = []
        #: The innermost worker track of this pool that is still open.
        self._worker: TrackClock | None = None
        #: The track of the most recent task run on a worker (schedulers
        #: read its ``end`` to learn the completion time).
        self.last_track: TrackClock | None = None
        #: The latest dispatch time processed so far.
        self._latest = 0.0

    def dispatch(
        self,
        fn: Callable[..., Any],
        *args: Any,
        arrival: float | None = None,
        label: str = "request",
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` as a switchless call; the pool prices it.

        Every call on a serial clock, and a call without an explicit
        ``arrival`` made on a parallel clock's base timeline or on one of
        this pool's worker tracks, runs synchronously and pays one
        switchless call.  Any other call runs on a worker's own track,
        opened at ``arrival`` (default: the clock's current time).  From
        inside a request's track it is a nested track: the request
        resumes at its end and takes over its accounts, ``worker-wait``
        and ``transitions`` included.  The pool is adaptive, after the
        SDK's switchless design: a worker finishing a task spins for
        ``spin_window`` before parking, so a task arriving within the
        window is picked up as a cheap switchless call; one arriving
        later must wake a parked worker — a full transition, the SDK's
        fallback.  When every live worker is busy the task queues for the
        earliest one (charged to ``worker-wait``) and is handed off
        without a transition — the worker is already running in the
        enclave.
        """
        self.stats.submitted += 1
        clock = self._parallel
        if clock is None or (
            arrival is None and clock.active_track() in (None, self._worker)
        ):
            self.stats.fast += 1
            self._clock.charge(self._costs.switchless_call, account="transitions")
            return fn(*args, **kwargs)
        self.stats.dispatched += 1
        when = clock.now() if arrival is None else arrival
        if not self._primed:
            self._primed = True
            self._worker_free = [when] * self.workers
        # The heap and the park rule below assume dispatches come in time
        # order.  A closed-loop driver issues *requests* in arrival order,
        # but an ECALL is stamped at its arrival plus the client's leg, so
        # one can come after a later-stamped ECALL of an op issued before
        # it (most often a PUT_FILE's chunk record).  It then sees that
        # ECALL's worker as busy, or a worker parked that had not parked
        # yet at its own time: its error is bounded by the worker-wait and
        # the transition it is charged.  Over edit_churn's measured rounds
        # (seed 1), 345 of 1 728 ECALLs came out of order, by up to 0.30
        # ms, against 0.022 ms of worker-wait and 0.004 ms of transitions
        # per 0.31 ms op (docs/PERF.md §33); ``stats.out_of_order`` counts
        # them.
        if when < self._latest:
            self.stats.out_of_order += 1
            self.stats.out_of_order_max_s = max(
                self.stats.out_of_order_max_s, self._latest - when
            )
        else:
            self._latest = when
        # Workers idle past the spin window have parked (the pool
        # shrinking under low load).
        while self._worker_free and self._worker_free[0] < when - self.spin_window:
            heapq.heappop(self._worker_free)
            self.stats.parks += 1
        track = clock.open_track(label, start=when)
        outer, self._worker = self._worker, track
        try:
            if self._worker_free and self._worker_free[0] <= when:
                # A spinning worker picks the task up immediately.
                heapq.heappop(self._worker_free)
                self.stats.fast += 1
                self.stats.spins += 1
                cost = self._costs.switchless_call
            elif len(self._worker_free) < self.workers:
                # Every live worker is busy or parked: wake a parked one.
                # Its release lands in the heap when this task completes —
                # the pool growing back under load.
                self.stats.wakes += 1
                cost = self._costs.ocall_transition
            else:
                # All workers live but busy: queue for the earliest.  The
                # handoff needs no transition — the worker is already
                # inside the enclave.
                free = heapq.heappop(self._worker_free)
                self.stats.fast += 1
                self.stats.queued += 1
                self.stats.worker_wait_s += free - when
                clock.advance_to(free, account="worker-wait")
                cost = self._costs.switchless_call
            clock.charge(cost, account="transitions")
            return fn(*args, **kwargs)
        finally:
            self._worker = outer
            heapq.heappush(self._worker_free, track.now())
            clock.close_track(track)
            self.last_track = track
