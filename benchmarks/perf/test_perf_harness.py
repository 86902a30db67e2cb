"""Smoke test for the tracked perf harness (repro.bench.perf).

Runs the quick harness once, checks the report shape that CI archives
(``BENCH_perf.json``), and asserts the headline tentpole property: the
CoW clone makes the 218 880-page (855 MB IR-sized) attach at least 10x
faster than the copying baseline, with CoW cost flat across image sizes.
"""

import json
import os

from repro.bench.perf import ATTACH_PAGE_COUNTS, run_perf


def test_quick_harness_report(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    report = run_perf(quick=True, out_path=str(out))

    # The JSON artifact round-trips and matches the returned report.
    assert os.path.exists(out)
    assert json.loads(out.read_text()) == json.loads(json.dumps(report))
    assert report["schema"] == "trenv-repro-perf/1"
    assert report["quick"] is True
    assert report["peak_rss_mb"] > 0

    sweep = report["attach"]["fixed_vma_sweep"]
    assert [rec["pages"] for rec in sweep] == list(ATTACH_PAGE_COUNTS)
    largest = sweep[-1]
    assert largest["pages"] == 218880
    # Tentpole acceptance: >= 10x over the copying baseline at 219k pages.
    assert largest["speedup"] >= 10.0
    # O(metadata): CoW attach stays flat while the sweep grows 213x.
    cow_times = [rec["cow_us"] for rec in sweep]
    assert max(cow_times) < 10 * min(cow_times)
    # Simulated attach is sub-millisecond at every size (Figure 11).
    assert all(rec["simulated_ms"] < 1.0 for rec in sweep)

    for rec in report["attach"]["function_images"]:
        assert rec["function"] in ("DH", "IR")
        assert rec["speedup"] > 1.0   # real layouts still win, less so

    thr = report["throughput"]
    assert thr["workload"] == "W2"
    for stats in thr["platforms"].values():
        assert stats["invocations"] > 0
        assert stats["inv_per_s"] > 0

    # Cluster scale-out section: one end-to-end rack run.  Quick mode
    # shrinks the scenario (4 nodes x 8k invocations), so only the shape
    # and sanity are asserted here.
    scale = report["cluster_scale"]
    assert scale["scheduled_invocations"] > 0
    assert scale["wall_s"] > 0 and scale["inv_per_s"] > 0
    assert scale["invocations"] > 0
    # Scale-out must mean scale-OUT: the rack run spreads load over every
    # node instead of collapsing onto node0 (the old warm-affinity
    # degenerate case where one host served 100% of the trace).
    counts = scale["dispatch_counts"]
    assert len(counts) == scale["n_nodes"]
    total = sum(counts.values())
    assert total > 0
    assert max(counts.values()) <= 0.5 * total

    # PDES scaling ladder: jobs=1 is the serial reference; every other
    # worker count must dispatch the same invocations (bit-identity is
    # pinned by tests/serverless/test_parallel_cluster.py — the bench
    # only cross-checks counts and records wall/speedup/efficiency).
    par = report["parallel"]
    assert par["host_cpus"] >= 1
    assert par["lookahead_s"] > 0
    workers = par["workers"]
    assert workers[0]["jobs"] == 1
    assert workers[0]["mode"] in ("serial", "fallback")
    assert any(w["mode"] == "parallel" for w in workers[1:])
    for w in workers:
        assert w["wall_s"] > 0 and w["inv_per_s"] > 0
        assert w["speedup"] > 0 and w["efficiency"] > 0
