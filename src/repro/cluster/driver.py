"""Closed-loop multi-client driver against the cluster front door.

The cluster analogue of :class:`repro.bench.concurrency.ConcurrentDriver`:
N closed-loop clients, requests dispatched in global arrival order —
but each request goes through :meth:`SeGShareCluster.handle`, so it is
routed by affinity onto (possibly different) replicas' worker pools,
and survives replica failover mid-schedule.  The front door has no
client leg: it dispatches the handler call itself at the op's arrival,
and a download's stream is read inside that dispatch, so the worker's
track carries the whole request, stored chunks included.  Execution
order is arrival order, so a cluster run is serializable by
construction and the failover property test can compare it against a
serial single-server witness.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.bench.concurrency import DriverResult, OpRecord, run_closed_loop
from repro.cluster.router import SeGShareCluster
from repro.netsim import ParallelClock


class ClusterDriver:
    """Drive closed-loop clients through a cluster's replicas.

    Client thunks take the operation's arrival time and are expected to
    issue exactly one request through the cluster (``cluster.handle`` /
    ``cluster.put_file`` with ``arrival=`` passed through).
    """

    def __init__(self, cluster: SeGShareCluster) -> None:
        clock = cluster._clock
        if not isinstance(clock, ParallelClock):
            raise TypeError(
                "ClusterDriver needs a cluster on a ParallelClock "
                "(build_cluster(parallel=True))"
            )
        self._cluster = cluster
        self._clock = clock

    def run(self, clients: list[list[Callable[[float], Any]]]) -> DriverResult:
        cluster, clock = self._cluster, self._clock

        def issue(c: int, k: int, arrival: float) -> OpRecord:
            clients[c][k](arrival)
            track = cluster.last_track
            # A response synthesised after a failover ran on no worker: it
            # completes when the failover does, and has no track's ledger.
            end = clock.now() if track is None else track.end
            assert end is not None
            return OpRecord(
                client=c,
                index=k,
                label=f"c{c}/op{k}",
                start=arrival,
                end=max(end, arrival),
                accounts={} if track is None else dict(track.accounts),
            )

        # Quiescing the cluster flushes every replica's open commit epoch.
        return run_closed_loop(self._clock, clients, issue, cluster.quiesce)
