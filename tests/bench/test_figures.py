"""Experiment drivers at reduced scale: the paper's SHAPES must hold.

These are the repository's reproduction assertions — each test pins the
qualitative claim of a table/figure (who wins, what stays flat, what
grows) at parameters small enough for CI.
"""

import pytest

from repro.bench import figures
from repro.bench.workloads import binary_tree_paths, directories_of, flat_paths


pytestmark = pytest.mark.slow


class TestFig3Shape:
    def test_ordering_nginx_segshare_apache(self):
        result = figures.fig3(sizes_mb=(10,))
        row = result.rows[0]
        assert row["nginx_up"] < row["segshare_up"] < row["apache_up"]
        assert row["nginx_down"] < row["segshare_down"] < row["apache_down"]

    def test_latency_scales_with_size(self):
        result = figures.fig3(sizes_mb=(1, 20))
        small, large = result.rows
        assert large["segshare_up"] > small["segshare_up"] * 5


class TestExp2Shape:
    def test_independence_of_share_state(self):
        result = figures.exp2(repeats=3)
        adds = [row["add_s"] for row in result.rows]
        # All three scenarios within 5% of each other.
        assert max(adds) < min(adds) * 1.05
        # In the paper's ballpark (~150 ms): same order of magnitude.
        assert 0.05 < adds[0] < 0.5


class TestFig4Shape:
    def test_flat_in_prior_count(self):
        result = figures.fig4(counts=(1, 100), repeats=2)
        first, last = result.rows
        for column in ("memb_add", "memb_revoke", "perm_add", "perm_revoke"):
            assert last[column] < first[column] * 1.05, column


class TestFig5Shape:
    def test_rollback_overhead_shape(self):
        result = figures.fig5(max_x=6)
        base = result.rows[0]
        top = result.rows[-1]
        # Upload overhead negligible (paper: "negligible in the total").
        assert top["on_flat_up"] < base["off_flat_up"] * 1.10
        # Flat downloads grow with file count under protection...
        assert top["on_flat_down"] > base["on_flat_down"]
        # ...and exceed the tree layout at the same size (paper's Fig. 5).
        assert top["on_flat_down"] >= top["on_tree_down"]
        # Without protection, latency is flat.
        assert top["off_flat_down"] < base["off_flat_down"] * 1.05


class TestStorageShape:
    def test_overhead_in_paper_range(self):
        result = figures.storage(sizes_mb=(10,), acl_entries=(95, 1119))
        for row in result.rows:
            assert 0.5 < row["overhead_pct"] < 3.0
        # More ACL entries -> more overhead.
        assert result.rows[1]["stored_bytes"] > result.rows[0]["stored_bytes"]


class TestAblations:
    def test_revocation_contrast(self):
        result = figures.ablation_revocation(file_counts=(10, 50), file_size=50_000)
        first, last = result.rows
        # SeGShare's revocation cost is flat in the file count...
        assert last["segshare"] < first["segshare"] * 1.05
        # ...while eager HE grows and eventually crosses SeGShare.
        assert last["he_eager"] > first["he_eager"] * 3
        # Lazy HE is fast but leaves the window open.
        assert last["lazy_window"] is True

    def test_bucket_optimization_helps(self):
        result = figures.ablation_mset(file_count=127, buckets=(1, 64))
        single, many = result.rows
        assert many["download_s"] < single["download_s"]

    def test_dedup_savings_scale_with_duplicates(self):
        result = figures.ablation_dedup(
            file_count=12, file_size=50_000, duplicate_ratios=(0.0, 0.75)
        )
        none, much = result.rows
        assert none["savings_pct"] < 5
        assert much["savings_pct"] > 50


class TestReports:
    def test_table3_renders(self):
        assert "SeGShare" in figures.table3()

    def test_tcb_report_renders(self):
        assert "TOTAL" in figures.tcb()

    def test_crypto_throughput_runs(self):
        result = figures.crypto_throughput(size=500_000)
        assert [row["backend"] for row in result.rows] == ["aes-gcm (openssl)"]


class TestWorkloads:
    def test_binary_tree_paths_unique(self):
        paths = binary_tree_paths(100)
        assert len(set(paths)) == 100
        assert all(path.endswith(".dat") for path in paths)

    def test_flat_paths_are_root_level(self):
        assert all(path.count("/") == 1 for path in flat_paths(50))

    def test_directories_in_creation_order(self):
        paths = ["/a/b/f1", "/a/f2"]
        dirs = directories_of(paths)
        assert dirs == ["/a/", "/a/b/"]
        for directory in dirs:
            assert directory.endswith("/")

    def test_experiment_result_series(self):
        from repro.bench.harness import ExperimentResult

        result = ExperimentResult("x", "d", ["a", "b"])
        result.add(a=1, b=2.0)
        result.add(a=2, b=4.0)
        assert result.series("a", "b") == [(1, 2.0), (2, 4.0)]
        assert "a" in result.format()
