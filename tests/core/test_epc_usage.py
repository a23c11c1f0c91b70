"""The constant-enclave-memory claim, checked through the EPC model.

Paper §VI: "users send and receive small, fixed-size chunks and the
enclave processes one chunk at a time ... the enclave only requires a
small, constant size buffer for each request."
"""

import pytest

from repro.bench.workloads import MB, pseudo_bytes
from repro.core.enclave_app import SeGShareOptions
from repro.sgx.protected_fs import CHUNK_SIZE
from repro.store.engine import BUFFER_BUDGET
from repro.tls.session import STREAM_CHUNK


@pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "inline"])
def test_upload_working_set_independent_of_file_size(make_deployment, enable_dedup):
    deployment = make_deployment(SeGShareOptions(enable_dedup=enable_dedup))
    epc = deployment.server.platform.epc
    client = deployment.new_user("alice")

    peaks = []
    for i, size in enumerate((1 * MB, 8 * MB, 24 * MB)):
        epc.stats.peak = epc.stats.allocated  # this upload's high-water mark
        client.upload(f"/f{i}.dat", pseudo_bytes(f"epc{i}", size))
        peaks.append(epc.stats.peak)

    if enable_dedup:
        # Chunks stream into the dedup store: the record-sized buffer
        # dominates, and a 24x larger file stays within a couple of chunk
        # sizes of the smallest one.
        assert max(peaks) <= min(peaks) + 2 * STREAM_CHUNK
        assert max(peaks) < 4 * STREAM_CHUNK
    else:
        # The inline record is written at commit through the transaction's
        # write buffer, which holds at most BUFFER_BUDGET bytes and then
        # writes through: one record, the full buffer, one PFS chunk.  The
        # upload itself waits for commit outside the EPC model (an open
        # defect, DESIGN.md's streaming note), so this is not the whole story.
        assert max(peaks) < STREAM_CHUNK + BUFFER_BUDGET + CHUNK_SIZE
        assert max(peaks) - min(peaks) < STREAM_CHUNK


def test_no_paging_ever_triggers(deployment):
    epc = deployment.server.platform.epc
    client = deployment.new_user("alice")
    for i in range(3):
        client.upload(f"/f{i}.dat", pseudo_bytes(f"epc{i}", MB))
        client.download(f"/f{i}.dat")
    assert epc.stats.page_swaps == 0


def test_memory_returns_to_baseline_after_requests(deployment):
    epc = deployment.server.platform.epc
    client = deployment.new_user("alice")
    client.upload("/f.dat", pseudo_bytes("epc", MB))
    assert epc.stats.allocated == 0  # all per-record buffers were freed
