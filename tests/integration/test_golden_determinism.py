"""Golden determinism: host-side choices never change results.

The oracle is the set of frozen digests in
:mod:`tests.integration.test_golden_digests`.  Here the same scenarios
run under the remaining host-side switches — the copying attach
baseline (``optflags.optimizations_disabled()``), repeat runs in one
process, each observability level, the sweep process pool, the
reference paths of the retired scale-out flags — and must reproduce
those digests (or, where no digest is frozen, each other) bit for bit.
"""

from contextlib import contextmanager, nullcontext

import pytest

from repro import optflags
from repro.analysis.sanitizer import sanitized
from repro.serverless import cluster as cluster_mod
from repro.serverless.metrics import percentile
from repro.sim.engine import Delay, Simulator
from tests.integration.test_golden_digests import (GOLDEN, blake,
                                                   results_digest, run_w2,
                                                   slice_payload, w2_slice)


@pytest.mark.parametrize("platform", ["t-cxl", "t-rdma", "criu"])
def test_optimizations_are_bit_identical(platform):
    """The copying attach/restore baseline reproduces the frozen results."""
    with optflags.optimizations_disabled():
        digest = results_digest(f"w2-{platform}")
    assert digest == GOLDEN[f"w2-{platform}"][0]


def test_flags_restored_after_context():
    assert optflags.cow_attach and optflags.parallel_sim
    with optflags.optimizations_disabled():
        assert not optflags.cow_attach and not optflags.parallel_sim
    assert optflags.cow_attach and optflags.parallel_sim


@pytest.mark.parametrize("platform", ["t-cxl", "faasnap+"])
def test_w2_repeat_is_bit_identical(platform):
    """Teardown eviction order and page-cache counting are order-free.

    VM teardown evicts the private host-cache files of many VMs into a
    shared accountant; ``charge_file`` counts misses on a set.  Both ran
    over unordered sets before the SIM003 sweep — two identical-seed W2
    runs must agree on the full stream *and* the memory peak (which the
    eviction/charge timeline feeds).
    """
    assert w2_slice(platform) == w2_slice(platform)


#: The scale-out paths whose optflags were retired.  The frozen digests
#: were recorded with each flag switched off as well as on, so each
#: retired reference path must still reproduce them.
SCALE_FLAGS = ("timer_wheel", "dispatch_index", "stream_metrics",
               "batch_arrivals")


def _delay_wrapper_spawns(sim, schedule):
    """The retired arrival path: one task per arrival that sleeps with
    ``Delay`` until its arrival time, then runs the invocation."""
    def arrival(when, gen):
        yield Delay(max(0.0, when - sim.now))
        return (yield from gen)

    return [sim.spawn(arrival(when, gen), name=f"inv-{i}")
            for i, (when, gen) in enumerate(schedule)]


@contextmanager
def retired_reference(flag, monkeypatch):
    """Run the block on the path ``flag`` selected when it was off.

    The switch itself is gone (``optflags.disabled`` rejects the name).
    Paths still reachable from outside are forced here: Delay-wrapper
    arrivals for ``batch_arrivals``, the O(nodes) scan for
    ``dispatch_index``.  Yields a list that grows each time the forced
    path is taken.
    """
    with pytest.raises(ValueError):
        with optflags.disabled(flag):
            pass
    taken = []
    if flag == "batch_arrivals":
        def spawn_at_many(sim, schedule):
            waiters = _delay_wrapper_spawns(sim, schedule)
            taken.append(len(waiters))
            return waiters
        monkeypatch.setattr(Simulator, "spawn_at_many", spawn_at_many)
    elif flag == "dispatch_index":
        def no_index(platforms):
            taken.append(len(platforms))
            return None
        monkeypatch.setattr(cluster_mod, "_DispatchIndex", no_index)
    yield taken


def _assert_streaming_matches_exact(recorder):
    """The exact-only recorder's answers: percentiles over the retained
    results.  Below ``EXACT_SAMPLE_CAP`` streaming must equal them."""
    for function in [None] + recorder.functions():
        kept = recorder.measured(function)
        assert kept
        for p in (0, 25, 50, 99, 100):
            assert recorder.e2e_percentile(p, function) == percentile(
                [r.e2e for r in kept], p)
            assert recorder.startup_percentile(p, function) == percentile(
                [r.startup for r in kept], p)
            assert recorder.exec_percentile(p, function) == percentile(
                [r.exec for r in kept], p)


@pytest.mark.parametrize("flag", SCALE_FLAGS)
def test_each_scale_flag_is_bit_identical(flag, monkeypatch):
    """Each retired scale-out path leaves the W2 slice bit-identical.

    ``batch_arrivals`` replays the Delay-wrapper arrivals; the
    single-node slice never builds a dispatch index, so
    ``dispatch_index`` must leave it untouched.  The heap scheduler and
    the exact-only recorder cannot be re-installed, so their cases check
    what those reference paths guaranteed: the calendar queue dispatches
    every event in time order (the sanitizer's monotonicity check), and
    streaming percentiles equal exact percentiles over the results.
    """
    check = sanitized() if flag == "timer_wheel" else nullcontext()
    with retired_reference(flag, monkeypatch) as taken, check as san:
        result = run_w2("t-cxl")
    payload = slice_payload(result)
    assert payload["results"], "W2 slice produced no invocations"
    assert blake(payload) == GOLDEN["w2-t-cxl"][0]
    if flag == "batch_arrivals":
        assert taken == [len(payload["results"])]
    elif flag == "dispatch_index":
        assert taken == []
    elif flag == "timer_wheel":
        assert san.events_checked > len(payload["results"])
    else:
        _assert_streaming_matches_exact(result.recorder)


@pytest.mark.parametrize("flag", ["dispatch_index", "batch_arrivals"])
def test_cluster_scale_flags_bit_identical(flag, monkeypatch):
    """The 3-node warm-affinity rack reproduces its frozen digest on the
    scan dispatch and on Delay-wrapper arrivals."""
    with retired_reference(flag, monkeypatch) as taken:
        digest = results_digest("cluster-warm-affinity-3")
    assert taken, f"the {flag} reference path never ran"
    assert digest == GOLDEN["cluster-warm-affinity-3"][0]


def test_sweep_parallel_is_bit_identical_to_serial():
    """Sweep shards agree bit-for-bit across pool sizes.

    ``jobs=1`` runs the shards serially in-process (the reference
    ordering); ``jobs=2`` fans them over a multiprocessing pool.  The
    ``results`` blocks must match exactly — only the ``host`` timing
    key may differ, and ``run_sweep`` already excludes it from the
    shard payloads.
    """
    from repro.bench.sweep import SweepConfig, run_sweep

    grid = [
        SweepConfig(seed=1, policy="warm-affinity", n_nodes=2,
                    trace="W2", duration=90.0),
        SweepConfig(seed=2, policy="least-loaded", n_nodes=2,
                    trace="scaleout", duration=30.0, rate=20.0),
        SweepConfig(seed=3, policy="round-robin", n_nodes=3,
                    trace="W2", duration=90.0),
    ]
    serial = run_sweep(grid, jobs=1, out_path=None)
    fanned = run_sweep(grid, jobs=2, out_path=None)
    assert serial["n_configs"] == 3
    assert list(serial["shards"]) == sorted(serial["shards"])
    assert serial["shards"] == fanned["shards"]


@pytest.mark.parametrize("level", ["metrics", "spans"])
def test_observability_is_bit_identical(level):
    """repro.obs never changes simulated results (the zero-cost contract).

    The W2 slice run under each observability level must reproduce the
    frozen (unobserved-equivalent) results digest bit-for-bit.
    """
    from repro.obs.observer import observed

    with observed(level) as obs:
        payload = w2_slice("t-cxl")
    assert payload["results"], "W2 slice produced no invocations"
    assert blake(payload) == GOLDEN["w2-t-cxl"][0]
    assert len(obs.registry) > 0
    if level == "spans":
        assert obs.tracer.n_spans > 0


def test_observability_cluster_bit_identical():
    """Same contract for the rack: dispatch spans don't perturb results."""
    from repro.obs.observer import observed

    with observed("spans") as obs:
        digest = results_digest("cluster-warm-affinity-3")
    assert digest == GOLDEN["cluster-warm-affinity-3"][0]
    assert obs.tracer.n_spans > 0


def test_w2_cluster_dispatch_counts_deterministic():
    """Cluster results expose dispatch counts in sorted-key order."""
    from repro.mem.layout import GB as _GB
    from repro.mem.pools import CXLPool
    from repro.serverless.cluster import make_trenv_cluster
    from repro.workloads.synthetic import make_w2_diurnal

    def run(seed):
        cluster = make_trenv_cluster(3, CXLPool(128 * _GB), seed=seed)
        wl = make_w2_diurnal(seed=seed, duration=150.0, mean_rate=1.6)
        result = cluster.run_workload(wl)
        return (list(result.dispatch_counts.items()),
                [(r.function, r.e2e) for r in result.recorder.results])

    first, second = run(3), run(3)
    assert first == second
    keys = [k for k, _ in first[0]]
    assert keys == sorted(keys)
