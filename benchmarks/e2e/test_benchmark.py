"""Self-tests against the live stack: registry, wrapper hygiene, paper anchor."""

import json
import os

import pytest

from repro.bench.figures import fig3
from repro.crypto import default_pae

from . import harness, layers
from .cli import BENCHMARK_JSON
from .spans import Recorder
from .workloads import MB, WORKLOADS, BrowseHot, BulkStream


@pytest.fixture(scope="module")
def registry():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def test_registry_lists_the_workloads_and_the_trace_dir_is_ignored(registry):
    assert [w["name"] for w in registry["workloads"]] == list(WORKLOADS)
    assert {w["why"] for w in registry["workloads"]} == {cls.why for cls in WORKLOADS.values()}
    assert registry["paths"] == ["benchmarks/e2e"]
    assert all(len(w["why"]) <= 200 for w in registry["workloads"])
    root = os.path.dirname(BENCHMARK_JSON)
    with open(os.path.join(root, ".gitignore"), encoding="utf-8") as handle:
        assert "benchmarks/e2e/out/" in handle.read().split()


def test_one_round_emits_exactly_the_registered_metrics(registry, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    metrics, report = harness.measure_end_to_end(BrowseHot, seed=1, seconds=0, rounds=1)
    assert not report["failures"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in registry["end_to_end"]
    }
    assert all(value > 0 for value, _ in metrics.values())

    traced, report = layers.measure_layers(BrowseHot, seed=1, seconds=0, rounds=1, trace_out=None)
    assert {name: unit for name, (_, unit) in traced.items()} == {
        m["name"]: m["unit"] for m in registry["per_layer"]
    }
    assert traced["trace.closure_frac"][0] >= layers.MIN_CLOSURE
    assert traced["cache.hit_rate"][0] >= 0.95 and traced["engine.commits_per_op"][0] == 0


def test_wrappers_leave_the_program_as_they_found_it():
    setup = harness.set_up(BrowseHot, seed=2)
    classes = {value for value in vars(layers).values() if isinstance(value, type)}
    classes |= {type(default_pae()), type(setup.world.servers[0].enclave.access)}
    pristine = {cls: dict(cls.__dict__) for cls in classes}
    rec = Recorder()
    layers.install(rec, setup.world)
    touched = {cls for cls in classes if dict(cls.__dict__) != pristine[cls]}
    assert len(touched) >= 20
    (traced,) = harness.run_rounds(setup, rounds=1, rec=rec)
    rec.remove()
    assert {cls: dict(cls.__dict__) for cls in classes} == pristine
    recorded = len(rec.spans)
    (after,) = harness.run_rounds(setup, rounds=1)
    assert recorded > 0 and len(rec.spans) == recorded  # nothing records any more
    assert not traced.failed and not after.failed


def test_one_megabyte_transfers_agree_with_the_fig3_reproduction():
    """EXPERIMENTS.md E1: the ledger and the figure read the same clock."""
    row = fig3(sizes_mb=(1,)).rows[0]
    setup = harness.set_up(BulkStream, seed=1)
    workload, world = setup.workload, setup.world
    ops = []
    for _ in range(3):
        path = "/" + workload.fresh_name()
        ops.append(workload.emit(0, "user", "upload", path, workload.content(1 * MB)))
        ops.append(workload.emit(0, "user", "download", path))
    result = harness.execute(world, ops)
    assert not result.failed
    ups, downs = result.op_virt_s[0::2], result.op_virt_s[1::2]
    assert sorted(ups)[1] == pytest.approx(row["segshare_up"], rel=0.05)
    assert sorted(downs)[1] == pytest.approx(row["segshare_down"], rel=0.05)
