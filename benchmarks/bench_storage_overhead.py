"""E5 / §VII-B — storage overhead of encrypted file + ACL.

Times the measurement pipeline and reports the overhead percentages via
``extra_info`` (paper: 1.12 %/1.48 % at 10 MB with 95/1119 ACL entries;
1.05 %/1.06 % at 200 MB).  Full numbers:
``python -m repro.bench storage --full``.
"""

import pytest

from repro.bench.workloads import MB, pseudo_bytes
from repro.core.acl import acl_path
from repro.core.model import default_group

SIZE = 5 * MB
ACL_ENTRIES = 95


@pytest.mark.parametrize("entries", [ACL_ENTRIES, 1119])
def test_storage_overhead(benchmark, make_deployment, entries):
    deployment = make_deployment()
    handler = deployment.server.enclave.handler
    manager = deployment.server.enclave.manager
    data = pseudo_bytes("bench-storage", SIZE)
    handler.put_file("owner", "/f.dat", data)
    for i in range(entries - 1):
        handler.set_permission("owner", "/f.dat", default_group(f"g{i}"), "r")

    def measure():
        stored = manager.content_stored_size("/f.dat")
        stored += manager.content.pfs.stored_size(manager._sp(acl_path("/f.dat")))
        return stored

    stored = benchmark(measure)
    overhead_pct = 100 * (stored - SIZE) / SIZE
    benchmark.extra_info["plain_bytes"] = SIZE
    benchmark.extra_info["stored_bytes"] = stored
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 3)
    assert 0.5 < overhead_pct < 3.0  # the paper's ~1% regime
