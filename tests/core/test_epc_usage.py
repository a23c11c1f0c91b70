"""The constant-enclave-memory claim, checked through the EPC model.

Paper §VI: "users send and receive small, fixed-size chunks and the
enclave processes one chunk at a time ... the enclave only requires a
small, constant size buffer for each request."
"""

import os
import tracemalloc

import pytest

from repro.bench.workloads import MB, pseudo_bytes
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.netsim import azure_wan_env
from repro.storage.backends import DiskStore
from repro.storage.stores import StoreSet
from repro.tls.session import STREAM_CHUNK


@pytest.mark.parametrize("enable_dedup", [True, False], ids=["dedup", "plain"])
def test_upload_working_set_independent_of_file_size(make_deployment, enable_dedup):
    deployment = make_deployment(SeGShareOptions(enable_dedup=enable_dedup))
    epc = deployment.server.platform.epc
    client = deployment.new_user("alice")

    peaks = []
    for i, size in enumerate((1 * MB, 8 * MB, 24 * MB)):
        epc.stats.peak = epc.stats.allocated  # this upload's high-water mark
        client.upload(f"/f{i}.dat", pseudo_bytes(f"epc{i}", size))
        peaks.append(epc.stats.peak)

    # With dedup or without, chunks stream into an object as they arrive:
    # the record-sized buffer dominates, and a 24x larger file stays within
    # a couple of chunk sizes of the smallest one.
    assert max(peaks) <= min(peaks) + 2 * STREAM_CHUNK
    assert max(peaks) < 4 * STREAM_CHUNK


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


#: What the server may hold in Python memory while it ingests or moves a
#: 24 MB file: chunk- and record-sized buffers, plus one digest per 4 KiB
#: chunk in the write handle and one key per chunk in the disk store's
#: index (1.9 MB measured for the upload, 1.5 MB for the move).
PYTHON_PEAK_BOUND = 3 * MB


def test_plain_upload_and_move_hold_no_whole_file(ca, tmp_path, monkeypatch):
    """The EPC model sees only what the code charges to it; tracemalloc
    sees every Python allocation.  The stores live on disk, so what is
    traced is the server's own working set: without dedup, a 24 MB upload
    and a MOVE of that file must each stay far below the file's size."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # a durable disk is not the point
    stores = StoreSet(*(DiskStore(str(tmp_path / name)) for name in ("content", "group", "dedup")))
    server = SeGShareServer(azure_wan_env(), ca.public_key, stores=stores, options=SeGShareOptions())
    handler = server.enclave.handler
    chunks = 24 * MB // STREAM_CHUNK

    tracemalloc.start()
    try:
        sink = handler.open_upload("alice", "/big.dat")
        for i in range(chunks):
            sink.write(pseudo_bytes(f"big/{i}", STREAM_CHUNK))
        assert sink.finish()
        _, upload_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        move = Request(op=Op.MOVE, args=("/big.dat", "/moved.dat"))
        assert handler.handle("alice", move).status is Status.OK
        _, move_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert handler.stat("alice", "/moved.dat").status is Status.OK
    assert server.enclave.manager.content_size("/moved.dat") == chunks * STREAM_CHUNK
    assert upload_peak < PYTHON_PEAK_BOUND, f"upload held {upload_peak} bytes"
    assert move_peak < PYTHON_PEAK_BOUND, f"move held {move_peak} bytes"
