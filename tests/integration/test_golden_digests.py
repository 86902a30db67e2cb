"""Frozen golden digests: simulated outputs pinned as recorded values.

Each scenario runs once under ``observed("spans")`` and reduces three
artifacts to blake2b digests:

* ``results`` — the full invocation stream (every
  :class:`~repro.serverless.metrics.InvocationResult` field), failures,
  memory peaks and, for racks, dispatch counts;
* ``registry`` — the metrics registry as canonical JSON;
* ``trace`` — the exported Chrome trace.

The digests below were recorded once and are the oracle for every
host-side change: a refactor, an optimisation or a deleted code path
must reproduce them bit for bit.  A change that is *meant* to move
simulated results updates them deliberately; print fresh values with
``PYTHONPATH=src python tests/integration/test_golden_digests.py``.
"""

import dataclasses
import hashlib
import json
from typing import Callable, Dict

import pytest

from repro.bench.harness import run_platform_workload
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.obs.export import to_chrome_trace
from repro.obs.observer import observed
from repro.serverless.cluster import (LeastLoaded, RoundRobin,
                                      make_trenv_cluster)
from repro.workloads.synthetic import make_scaleout_uniform, make_w2_diurnal


def blake(payload) -> str:
    """blake2b over canonical JSON (floats render as their exact repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _stream(recorder):
    return [dataclasses.astuple(r) for r in recorder.results]


def run_w2(platform: str, seed: int = 1, duration: float = 150.0):
    """Run the fig17-style W2 slice on one node; the full RunResult."""
    wl = make_w2_diurnal(seed=seed, duration=duration, mean_rate=1.6,
                         soft_cap_bytes=5 * GB)
    return run_platform_workload(platform, wl, seed=seed)


def slice_payload(result) -> Dict:
    """The digested part of a W2 slice's RunResult."""
    return {"results": _stream(result.recorder),
            "failures": result.recorder.failures,
            "peak_memory_bytes": result.peak_memory_bytes}


def w2_slice(platform: str, seed: int = 1, duration: float = 150.0) -> Dict:
    """The fig17-style W2 slice on one node, reduced for digesting."""
    return slice_payload(run_w2(platform, seed, duration))


def rack(n_nodes: int, seed: int, workload, policy=None) -> Dict:
    """One TrEnv rack on a shared CXL pool."""
    cluster = make_trenv_cluster(n_nodes, CXLPool(128 * GB), seed=seed,
                                 policy=policy)
    result = cluster.run_workload(workload)
    return {"results": _stream(result.recorder),
            "failed": result.failed,
            "per_node_peak_mb": result.per_node_peak_mb,
            "pool_used_mb": result.pool_used_mb,
            "dispatch_counts": result.dispatch_counts,
            "duration": result.duration}


def _scaleout(seed: int = 7):
    return make_scaleout_uniform(seed=seed, duration=6.0, rate=30.0,
                                 quantum=0.05)


#: name -> scenario; every one is deterministic in its seeds alone.
SCENARIOS: Dict[str, Callable[[], Dict]] = {
    "w2-t-cxl": lambda: w2_slice("t-cxl"),
    "w2-t-rdma": lambda: w2_slice("t-rdma"),
    "w2-criu": lambda: w2_slice("criu"),
    "w2-faasnap+": lambda: w2_slice("faasnap+"),
    # Warm affinity reads the dispatch index (warm map + load heap).
    "cluster-warm-affinity-3": lambda: rack(
        3, 3, make_w2_diurnal(seed=3, duration=150.0, mean_rate=1.6)),
    "rack-round-robin": lambda: rack(4, 7, _scaleout(), RoundRobin()),
    "rack-least-loaded": lambda: rack(4, 7, _scaleout(), LeastLoaded()),
}

#: name -> (results, registry, trace) digests.
GOLDEN: Dict[str, tuple] = {
    "cluster-warm-affinity-3": ("a34228a62ba821f8a090f3d7812d64b5",
                                "ecde2210177da7c946fb1cb29b275959",
                                "5d6f69ee86a43f77aa4464a3b78ebe87"),
    "rack-least-loaded": ("16f161793abdca4c6ad9f6a8d093c30a",
                          "d9ba91406e24907b1722e80450f4050b",
                          "d636c125762b17e5f7d7ef780819e53f"),
    "rack-round-robin": ("3bd831559098d8d45b28f46d8fb21436",
                         "48328f810f299076975a07f96e51dba2",
                         "93c41cb00863e7db3c10910434be10e8"),
    "w2-criu": ("8378d195a768ffca8224aec82c1f48a2",
                "e597f6a84044dbe63735d5d41b8a74ec",
                "6a6afb9a0ad90049893659c01559815e"),
    "w2-faasnap+": ("5e35a4f3cf77a0d9e9d360ae30bb93ff",
                    "7edcdb6d5d8f9f283585eeea3ad4946c",
                    "e02061b66633071c85f26d79d3262b3d"),
    "w2-t-cxl": ("96f25cd66b34c0cf0fff0dd1290bd3e9",
                 "a331a9896ea7959adb25005997091c8f",
                 "56961e619ba2e1100236f413da4ca463"),
    "w2-t-rdma": ("dcf4e73a708acc52460eff213a4e59a3",
                  "518d7d2c9530e3491ec02de41c5a2dd5",
                  "2ef3941c44d32511e3ffe1bb308d62bc"),
}


def results_digest(name: str) -> str:
    """Run one scenario in the caller's observer context; digest its
    results."""
    return blake(SCENARIOS[name]())


def scenario_digests(name: str) -> tuple:
    """Run one scenario under spans; digest results, registry, trace."""
    with observed("spans") as obs:
        results = results_digest(name)
    return (results, blake(obs.registry.to_dict()),
            blake(to_chrome_trace(obs.tracer)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert scenario_digests(name) == GOLDEN[name]


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f"    {scenario!r}: {scenario_digests(scenario)!r},",
              flush=True)
