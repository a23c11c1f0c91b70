"""Closed-loop multi-client driver against the cluster front door.

The cluster analogue of :class:`repro.bench.concurrency.ConcurrentDriver`:
N closed-loop clients, requests dispatched in global arrival order —
but each request goes through :meth:`SeGShareCluster.handle`, so it is
routed by affinity onto (possibly different) replicas' worker pools,
and survives replica failover mid-schedule.  Execution order is arrival
order, so a cluster run is serializable by construction and the
failover property test can compare it against a serial single-server
witness.
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
        cluster = self._cluster

        def issue(c: int, k: int, arrival: float) -> OpRecord:
            clients[c][k](arrival)
            end = max(cluster.last_completion, arrival)
            return OpRecord(
                client=c, index=k, label=f"c{c}/op{k}", start=arrival, end=end, accounts={}
            )

        # Quiescing the cluster flushes every replica's open commit epoch.
        return run_closed_loop(self._clock, clients, issue, cluster.quiesce)
