"""A front-door download is charged to the worker track that served it.

The front door reads a streamed response to its end inside the
dispatched request, as the TLS path reads one inside the ECALL.  A file
larger than one blob is read chunk by chunk from the store after the
open, so if the stream were read after the track closed, those reads
would land on the shared base clock and serialize every replica's
requests behind each other.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import KB, unique_bytes
from repro.cluster import ClusterDriver, build_cluster
from repro.core.requests import Op, Request, Status
from repro.pki import CertificateAuthority

_CA = CertificateAuthority(key_bits=1024)

CLIENTS = 8
OPS_PER_CLIENT = 6
FILE_BYTES = 8 * KB  # larger than one blob


def _disjoint_reads(replicas: int):
    """CLIENTS closed-loop readers, each of its own home's file; returns
    the driver result and the virtual time each read charged after its
    request returned."""
    deployment = build_cluster(replicas=replicas, parallel=True, ca=_CA)
    cluster = deployment.cluster
    clock = deployment.env.clock
    for c in range(CLIENTS):
        assert cluster.handle(f"u{c}", Request(op=Op.PUT_DIR, args=(f"/c{c}/",))).status is Status.OK
        content = unique_bytes("front-door", c, FILE_BYTES)
        assert cluster.put_file(f"u{c}", f"/c{c}/doc", content).status is Status.OK
    late: list[float] = []

    def get(c: int, arrival: float) -> None:
        response = cluster.handle(f"u{c}", Request(op=Op.GET, args=(f"/c{c}/doc",)), arrival=arrival)
        before = clock.now()
        assert b"".join(response.chunks) == unique_bytes("front-door", c, FILE_BYTES)
        late.append(clock.now() - before)

    clients = [
        [(lambda arrival, c=c: get(c, arrival)) for _ in range(OPS_PER_CLIENT)]
        for c in range(CLIENTS)
    ]
    return ClusterDriver(cluster).run(clients), late


@pytest.mark.parametrize("replicas", [1, 3])
def test_stream_is_read_inside_the_dispatched_request(replicas):
    result, late = _disjoint_reads(replicas)
    assert len(result.ops) == CLIENTS * OPS_PER_CLIENT
    assert late == [0.0] * len(result.ops)


def test_disjoint_reads_of_a_multi_blob_file_scale_with_replicas():
    """With the chunk reads on the serving replica's track, three replicas
    serve the disjoint readers about twice as fast as one (docs/PERF.md
    §32): before, both makespans were the same serialized chunk reads."""
    one, _ = _disjoint_reads(1)
    three, _ = _disjoint_reads(3)
    assert three.throughput / one.throughput >= 1.9
