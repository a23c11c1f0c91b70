"""The cluster driver records each op's ledger from the track that served it.

The front door runs each request on a worker track of its replica's
pool; the driver takes the op's completion time and accounts from that
track, so a cluster run's ``wait_breakdown`` says where its ops waited,
as a single server's does.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterDriver, build_cluster
from repro.core.requests import Op, Request, Status
from repro.pki import CertificateAuthority

_CA = CertificateAuthority(key_bits=1024)

CLIENTS = 8  # on one replica's 4 workers
OPS_PER_CLIENT = 4


def test_ops_queued_for_a_worker_carry_their_worker_wait():
    deployment = build_cluster(replicas=1, parallel=True, ca=_CA)
    cluster = deployment.cluster
    for c in range(CLIENTS):
        assert cluster.handle(f"u{c}", Request(op=Op.PUT_DIR, args=(f"/c{c}/",))).status is Status.OK

    def listdir(c: int, arrival: float) -> None:
        response = cluster.handle(f"u{c}", Request(op=Op.GET, args=(f"/c{c}/",)), arrival=arrival)
        assert response.status is Status.OK

    clients = [
        [(lambda arrival, c=c: listdir(c, arrival)) for _ in range(OPS_PER_CLIENT)]
        for c in range(CLIENTS)
    ]
    result = ClusterDriver(cluster).run(clients)
    assert len(result.ops) == CLIENTS * OPS_PER_CLIENT
    assert result.wait_breakdown["worker-wait"] > 0
    for op in result.ops:
        assert sum(op.accounts.values()) == pytest.approx(op.latency)
