"""Failure-detecting heartbeats over the virtual clock.

A replicated front door needs to *notice* that a replica died before it
can fail over, and the paper's evaluation philosophy — simulate time,
never wall-clock — applies to failure detection too.  The monitor
models the classic heartbeat protocol: every member is probed each
:data:`INTERVAL` simulated seconds over the LAN, and a member is declared
failed after :data:`MISS_THRESHOLD` consecutive silent probes.  The
detection *delay* (their product) is charged to the clock when a
failure is confirmed, so failover latency shows up in makespans and
benchmark rows instead of being free.

The probes themselves are plain callables (``True`` while the member is
alive); the cluster wires them to enclave liveness.  Everything here is
untrusted host-side machinery — heartbeats carry no secrets and an
adversarial cloud can at worst declare a live replica dead, which costs
availability, never integrity (the guards and journal protect state).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List

from repro.netsim.clock import SimClock

#: Probe period and consecutive misses before a member is declared failed:
#: the usual LAN defaults (tens of milliseconds, a few misses).
INTERVAL = 0.025
MISS_THRESHOLD = 3
#: One LAN round trip, charged per probe so heavy polling is not free.
PROBE_COST = 0.0002


@dataclass
class HeartbeatStats:
    """Counters exposed through the cluster's ``stats()``."""

    probes: int = 0
    failures_detected: int = 0
    #: Total simulated seconds spent waiting out detection timeouts.
    detection_seconds: float = 0.0

    def snapshot(self) -> dict:
        return asdict(self)


class HeartbeatMonitor:
    """Periodic liveness probing with a miss-threshold failure detector."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._probes: Dict[str, Callable[[], bool]] = {}
        self.stats = HeartbeatStats()

    @property
    def detection_timeout(self) -> float:
        """Seconds of silence before a member is declared failed."""
        return INTERVAL * MISS_THRESHOLD

    @property
    def members(self) -> List[str]:
        return sorted(self._probes)

    def register(self, name: str, probe: Callable[[], bool]) -> None:
        """Start monitoring ``name``; ``probe()`` is True while it lives."""
        self._probes[name] = probe

    def unregister(self, name: str) -> None:
        self._probes.pop(name, None)

    def poll(self) -> List[str]:
        """Probe every member once; returns the members that failed to answer."""
        down: List[str] = []
        for name, probe in sorted(self._probes.items()):
            self.stats.probes += 1
            self._clock.charge(PROBE_COST, account="heartbeat")
            if not probe():
                down.append(name)
        return down

    def confirm_failure(self, name: str) -> float:
        """Charge the detection delay for ``name`` and record the event.

        Called once the cluster decides a member is gone: the miss
        threshold means the failure was only *observable* after
        ``detection_timeout`` simulated seconds of silence, so that
        delay lands on the clock here.  Returns the charged delay.
        """
        del name  # the delay is identical for every member
        timeout = self.detection_timeout
        self.stats.failures_detected += 1
        self.stats.detection_seconds += timeout
        self._clock.charge(timeout, account="failover-detect")
        return timeout
