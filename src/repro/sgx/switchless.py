"""Switchless calls (Section II-A).

Regular ECALLs/OCALLs save and restore CPU state — expensive.  The SGX
SDK's switchless mode replaces the transition with a task written to a
shared untrusted buffer that worker threads poll.  SeGShare uses
switchless calls "for all network and file traffic".

Two entry points:

* :meth:`SwitchlessQueue.submit` runs a task synchronously on the
  caller's timeline (the legacy single-flow model), charging the cheap
  switchless cost while a worker is free and the regular transition cost
  when the pool is exhausted — the SDK's fallback behaviour.
* :meth:`SwitchlessQueue.dispatch` runs a task on its *own* parallel
  track (requires a :class:`~repro.netsim.clock.ParallelClock`): up to
  ``workers`` tasks execute concurrently, and a task arriving while the
  pool is saturated pays the regular transition cost *and* queues until
  the earliest worker frees — so the pool genuinely bounds request
  parallelism rather than merely repricing calls.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.netsim.clock import ParallelClock, SimClock, TrackClock
from repro.sgx.costmodel import SgxCostModel


@dataclass
class SwitchlessStats:
    submitted: int = 0
    fast: int = 0
    fallback: int = 0
    #: Tasks run on their own parallel track via :meth:`dispatch`.
    dispatched: int = 0
    #: Virtual seconds dispatched tasks spent queued for a free worker.
    worker_wait_s: float = 0.0
    #: Adaptive-pool counters: tasks picked up by a spinning worker, idle
    #: workers parked past the spin window, parked workers woken (a full
    #: transition — the pool growing back), and tasks queued behind a busy
    #: worker (handed off without a transition).
    spins: int = 0
    parks: int = 0
    wakes: int = 0
    queued: int = 0


class SwitchlessQueue:
    """A pool of untrusted (or trusted) worker threads serving calls.

    ``workers`` mirrors the SDK's ``uworkers``/``tworkers`` setting.  Use
    :meth:`submit` to run a callable as a switchless call on the current
    timeline and :meth:`dispatch` to run it on a parallel track through
    the worker pool.
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
        #: Tasks currently executing (their track or submit call is open).
        self._open = 0
        #: Min-heap of worker release times; grows to ``workers`` entries.
        self._worker_free: list[float] = []
        #: The track of the most recent :meth:`dispatch` (schedulers read
        #: its ``end`` to learn the completion time).
        self.last_track: TrackClock | None = None

    # -- synchronous calls (legacy single-flow model) -------------------------

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as a switchless call on the caller's timeline."""
        self.stats.submitted += 1
        self._open += 1
        try:
            if self._open <= self.workers:
                self.stats.fast += 1
                cost = self._costs.switchless_call
            else:
                # No free worker: the SDK falls back to a real transition.
                self.stats.fallback += 1
                cost = self._costs.ocall_transition
            self._clock.charge(cost, account="transitions")
            return fn(*args, **kwargs)
        finally:
            self._open -= 1

    # -- parallel dispatch ----------------------------------------------------

    def dispatch(
        self,
        fn: Callable[..., Any],
        *args: Any,
        arrival: float | None = None,
        label: str = "request",
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` on its own track through the worker pool.

        The task's track opens at ``arrival`` (default: the clock's
        current time).  The pool is adaptive, after the SDK's switchless
        design: a worker finishing a task spins for ``spin_window``
        before parking, so a task arriving within the window is picked up
        as a cheap switchless call; one arriving later must wake a parked
        worker — a full transition.  When every live worker is busy the
        task queues for the earliest one (charged to ``worker-wait``) and
        is handed off without a transition — the worker is already
        running in the enclave.  Without a :class:`ParallelClock` this
        degrades to :meth:`submit` — the serial model stays available
        everywhere.
        """
        clock = self._clock
        if not isinstance(clock, ParallelClock):
            return self.submit(fn, *args, **kwargs)
        self.stats.submitted += 1
        self.stats.dispatched += 1
        when = clock.now() if arrival is None else arrival
        if not self._primed:
            self._primed = True
            self._worker_free = [when] * self.workers
        # Dispatches are processed in arrival order, so every non-parked
        # worker's release time is in the heap at this point: workers idle
        # past the spin window have parked (the pool shrinking under low
        # load).
        while self._worker_free and self._worker_free[0] < when - self.spin_window:
            heapq.heappop(self._worker_free)
            self.stats.parks += 1
        track = clock.open_track(label, start=when)
        self._open += 1
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
                self.stats.fallback += 1
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
            self._open -= 1
            heapq.heappush(self._worker_free, track.now())
            clock.close_track(track)
            self.last_track = track
