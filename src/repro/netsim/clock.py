"""A virtual clock for deterministic latency accounting.

Components never sleep; they *charge* durations to the clock.  A latency
measurement is then simply ``clock.now() - start``.  Because every charge
is deterministic (cost models are pure functions of byte counts and
operation types), experiment results are reproducible bit-for-bit.

The clock also keeps named accounts so experiments can break a latency
down into components (network, crypto, enclave transitions, storage),
which the ablation benches report.

Two clocks exist:

* :class:`SimClock` — one serial timeline; every charge advances global
  time.  This is the default and models a single-flow server.
* :class:`ParallelClock` — the same interface, but requests can run on
  private :class:`TrackClock` timelines.  Overlapping independent
  requests then cost the *max*, not the sum, of their durations, and the
  base timeline is the makespan over all closed tracks.

Serialization points (lock waits, journal batch commits, monotonic
counter increments) are modeled as *rendezvous*: :meth:`SimClock.exclusive`
keeps a release time per named resource and advances the entering
timeline to it.  On a serial clock time is globally monotonic, so a
resource's release time can never be in the future and the rendezvous is
a natural no-op — serial benchmarks are unaffected.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class SimClock:
    """Virtual time in seconds, advanced explicitly by cost charges."""

    def __init__(self) -> None:
        self._now = 0.0
        self._accounts: dict[str, float] = defaultdict(float)
        #: Release time per named serial resource (see :meth:`exclusive`).
        self._resources: dict[str, float] = {}
        #: Seconds each named resource was held, summed over its holders.
        self._holds: dict[str, float] = defaultdict(float)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def charge(self, seconds: float, account: str = "other") -> None:
        """Advance the clock by ``seconds``, attributing them to ``account``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._now += seconds
        self._accounts[account] += seconds

    def advance_to(self, timestamp: float, account: str = "wait") -> None:
        """Move the clock forward to ``timestamp`` if it is in the future."""
        if timestamp > self._now:
            self._accounts[account] += timestamp - self._now
            self._now = timestamp

    def accounts(self) -> dict[str, float]:
        """A snapshot of time spent per account since construction."""
        return dict(self._accounts)

    def reset_accounts(self) -> None:
        self._accounts.clear()

    # -- serialization points -------------------------------------------------

    def active_track(self) -> "TrackClock | None":
        """The request timeline charges go to; a serial clock has none."""
        return None

    def holds(self) -> dict[str, float]:
        """Seconds each serial resource was held (waits excluded), per name."""
        return dict(self._holds)

    def resource_release(self, name: str) -> float:
        """When the named serial resource was last released (0.0 if never)."""
        return self._resources.get(name, 0.0)

    @contextmanager
    def exclusive(self, name: str, account: str = "serialize-wait") -> Iterator[None]:
        """A rendezvous on the serial resource ``name``.

        Entering waits (by advancing the current timeline) until the
        resource's previous holder released it; leaving publishes the new
        release time.  On a serial clock this never waits — time is
        globally monotonic, so the release time is always in the past.
        On a :class:`ParallelClock` it is what makes journal commits,
        counter increments, and guard-shard updates serialize across
        otherwise-overlapping request tracks.
        """
        release = self._resources.get(name, 0.0)
        entered = self.now()
        if release > entered:
            self.advance_to(release, account=account)
            entered = release
        try:
            yield
        finally:
            left = self.now()
            self._holds[name] += left - entered
            if left > self._resources.get(name, 0.0):
                self._resources[name] = left


class TrackClock:
    """One request's private timeline inside a :class:`ParallelClock`.

    A track starts at its request's arrival time and accumulates the
    charges made while it is the active track.  ``end`` is set when the
    track closes; ``elapsed`` is then the request's latency.
    """

    def __init__(self, label: str, start: float) -> None:
        self.label = label
        self.start = start
        self._now = start
        self.end: float | None = None
        self.accounts: dict[str, float] = defaultdict(float)

    def now(self) -> float:
        return self._now

    def charge(self, seconds: float, account: str = "other") -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._now += seconds
        self.accounts[account] += seconds

    def advance_to(self, timestamp: float, account: str = "wait") -> None:
        if timestamp > self._now:
            self.accounts[account] += timestamp - self._now
            self._now = timestamp

    @property
    def elapsed(self) -> float:
        """Time spent on this track so far (its latency once closed)."""
        return (self._now if self.end is None else self.end) - self.start


class ParallelClock(SimClock):
    """A :class:`SimClock` whose requests may run on parallel tracks.

    While a track is open (see :meth:`track`), ``now``/``charge``/
    ``advance_to`` route to it, so components charging "the clock" charge
    the in-flight request without knowing about concurrency.  Closing a
    track merges its end into the base timeline, which therefore reads as
    the *makespan* — the wall-clock a real multi-threaded server would
    show.  ``accounts()`` aggregates across tracks and thus sums *work*;
    work can exceed the makespan exactly when requests overlapped.

    Tracks nest LIFO.  A nested track models a synchronous sub-task: when
    it closes, the enclosing timeline advances to its end.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Open tracks only, innermost last: a closed track belongs to
        #: whoever kept the object ``track()``/``open_track()`` returned.
        self._stack: list[TrackClock] = []

    # -- routing --------------------------------------------------------------

    def active_track(self) -> TrackClock | None:
        return self._stack[-1] if self._stack else None

    def now(self) -> float:
        if self._stack:
            return self._stack[-1].now()
        return self._now

    def charge(self, seconds: float, account: str = "other") -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if self._stack:
            self._stack[-1].charge(seconds, account)
            self._accounts[account] += seconds
        else:
            super().charge(seconds, account)

    def advance_to(self, timestamp: float, account: str = "wait") -> None:
        if self._stack:
            track = self._stack[-1]
            if timestamp > track.now():
                self._accounts[account] += timestamp - track.now()
                track.advance_to(timestamp, account)
        else:
            super().advance_to(timestamp, account)

    # -- track lifecycle ------------------------------------------------------

    def open_track(self, label: str = "task", start: float | None = None) -> TrackClock:
        """Open a private timeline starting at ``start`` (default: now).

        ``start`` may lie before the base clock — a request that arrived
        while earlier requests were still executing begins at its own
        arrival time, which is the whole point of parallel tracks.
        """
        track = TrackClock(label, self.now() if start is None else start)
        self._stack.append(track)
        return track

    def close_track(self, track: TrackClock, join: bool = True) -> None:
        """Close the innermost track (must be ``track``) and merge its end.

        ``join=False`` models an *asynchronous* sub-task — background work
        (like a group-commit epoch close) that nobody waits on directly:
        the caller's timeline does not advance, but the track's end still
        counts toward the makespan.
        """
        if not self._stack or self._stack[-1] is not track:
            raise RuntimeError("tracks must close LIFO (innermost first)")
        self._stack.pop()
        track.end = track.now()
        if join and self._stack:
            # A nested track is a synchronous sub-task: its caller resumes
            # when it finishes.
            self._stack[-1].advance_to(track.end, account="join")
        elif track.end > self._now:
            # Top-level join: the base timeline is the makespan so far.
            self._now = track.end

    @contextmanager
    def track(self, label: str = "task", start: float | None = None) -> Iterator[TrackClock]:
        """Run the body on its own timeline; yields the :class:`TrackClock`."""
        opened = self.open_track(label, start)
        try:
            yield opened
        finally:
            self.close_track(opened)


class Stopwatch:
    """Measure a span of virtual time.

    >>> clock = SimClock()
    >>> with Stopwatch(clock) as watch:
    ...     clock.charge(0.25, "network")
    >>> watch.elapsed
    0.25
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = self._clock.now() - self._start
