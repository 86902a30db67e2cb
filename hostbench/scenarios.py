"""The three benchmark workloads, driven through the simulator's public API.

Each scenario turns a seed into inputs (an arrival schedule), builds what
the run needs, runs it, and reduces the simulated outputs to a digest.
Everything here is virtual-time and seeded: the same seed gives the same
schedule and the same digest on every host.  Host time is measured by the
caller (``passrun.py``), never here.

Every scenario threads its seed into the platforms' trace RNGs too, so a
warm-up on another seed cannot hand the timed pass memoised per-invocation
access traces (the trace cache is keyed on the RNG seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, FrozenSet, Tuple

from repro.bench.experiments_overload import (SURGE_FUNCTIONS,
                                              overload_control,
                                              surge_profile)
from repro.bench.perf import micro_suite
from repro.core.platform import TrEnvPlatform
from repro.faults import FaultInjector, FaultPlan
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.node import Node
from repro.obs.observer import observed
from repro.serverless.cluster import make_trenv_cluster
from repro.serverless.parallel import run_cluster_parallel
from repro.serverless.partition import ClusterSpec
from repro.serverless.runner import run_workload
from repro.workloads.functions import function_by_name
from repro.workloads.synthetic import (Workload, make_scaleout_uniform,
                                       make_w2_diurnal)

#: Pool size of the single-node platform (``repro.bench.harness``).
POOL_BYTES = 128 * GB

#: Rack shape of the micro rack.
RACK_NODES = 4
RACK_SUITE = micro_suite(16)


@dataclass
class Outcome:
    """What one run produced, in virtual-time terms only."""

    arrivals: int
    #: Arrivals the simulation resolved: completed + shed + aborted.
    resolved: int
    digest: str
    #: PDES lookahead windows of the run (0 when it ran serially).
    windows: int = 0


def blake(payload: Any) -> str:
    """blake2b over a canonical JSON rendering (floats print exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _plain(value: Any) -> Any:
    """numpy scalars (and anything else with ``item``) as Python values."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one labelled use of the run's ``seed``."""
    raw = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=4).digest()
    return int.from_bytes(raw, "big") >> 1


def pass_seed(seed: int, index: int) -> int:
    """Inputs of timed pass ``index``: each pass gets its own schedule."""
    return derive_seed(seed, f"pass{index}")


#: Every run warms up on the same schedule, so that set-up does the same
#: work whatever the run's seed; the pass seeds never share its trace RNGs.
WARMUP_SEED = derive_seed(0, "warmup")
#: Share of a pass's schedule that the warm-up replays.
WARMUP_SCALE = 0.05


# -- w2_trenv: one TrEnv node on the W2 diurnal trace --------------------------

W2_DURATION = 150.0


def w2_inputs(seed: int, scale: float) -> Workload:
    return make_w2_diurnal(seed=seed, duration=W2_DURATION * scale,
                           mean_rate=1.6, soft_cap_bytes=5 * GB)


def w2_build(seed: int, workload: Workload) -> TrEnvPlatform:
    # make_platform("t-cxl") with the seed threaded into the platform,
    # whose default trace-RNG seed is 0 for every run.
    node = Node(seed=seed)
    platform = TrEnvPlatform(node, CXLPool(POOL_BYTES, node.latency),
                             seed=seed, name="t-cxl")
    for name in workload.functions_used():
        platform.register_function(function_by_name(name))
    return platform


def w2_run(platform: TrEnvPlatform, workload: Workload, obs_level: str,
           jobs: int):
    with observed(obs_level):
        return run_workload(platform, workload)


def w2_reduce(result, workload: Workload) -> Outcome:
    """Digest: the ordered result stream and ``platform.stats()``."""
    recorder = result.recorder
    stream = [astuple(r) for r in recorder.results]
    return Outcome(arrivals=workload.n_invocations,
                   resolved=len(recorder.results) + len(recorder.failures),
                   digest=blake({"results": stream,
                                 "failures": recorder.failures,
                                 "stats": result.platform_stats}))


def w2_trace_seeds(seed: int) -> FrozenSet[int]:
    return frozenset({seed})


# -- rack_micro: a 4-node round-robin rack of zero-work functions -----

RACK_DURATION = 600.0
RACK_RATE = 16.0
RACK_QUANTUM = 0.05


def rack_inputs(seed: int, scale: float) -> Workload:
    return make_scaleout_uniform(seed=seed, functions=RACK_SUITE,
                                 duration=RACK_DURATION * scale,
                                 rate=RACK_RATE, quantum=RACK_QUANTUM)


def rack_build(seed: int, workload: Workload) -> ClusterSpec:
    # The rack itself is built (and its functions registered) inside
    # run_cluster_parallel, by every PDES worker: that cost is part of
    # the timed pass, as it is for any caller of the parallel runner.
    return ClusterSpec(n_nodes=RACK_NODES, seed=seed, policy="round-robin",
                       functions=RACK_SUITE)


def rack_run(spec: ClusterSpec, workload: Workload, obs_level: str,
             jobs: int):
    return run_cluster_parallel(spec, workload, jobs=jobs,
                                obs_level=obs_level)


def rack_reduce(out, workload: Workload) -> Outcome:
    """Digest: recorder summary, dispatch counts and invocation count."""
    result = out.result
    return Outcome(arrivals=workload.n_invocations,
                   resolved=result.recorder.count() + len(result.failed),
                   digest=blake({"summary": result.recorder.summary(),
                                 "dispatch": result.dispatch_counts,
                                 "count": result.recorder.count(),
                                 "failed": result.failed}),
                   windows=out.report.n_windows)


def rack_trace_seeds(seed: int) -> FrozenSet[int]:
    return frozenset(seed + i for i in range(RACK_NODES))


# -- surge_control: 3-node overload surge, node crash, control plane ----------

SURGE = surge_profile()
#: The surge at half its length (20 of 40 virtual s, crash at 7.5 s for
#: 5 s): same overload and outage shape, twice the passes per run.
SURGE_SCALE = 0.5


def surge_inputs(seed: int, scale: float) -> Workload:
    suite = [function_by_name(n) for n in SURGE_FUNCTIONS]
    return make_scaleout_uniform(seed=seed, functions=suite,
                                 duration=SURGE["duration"] * SURGE_SCALE
                                 * scale,
                                 rate=SURGE["rate"], keep_alive=600.0)


def surge_build(seed: int, workload: Workload):
    cluster = make_trenv_cluster(int(SURGE["n_nodes"]), CXLPool(128 * GB),
                                 seed=seed, cores=int(SURGE["cores"]),
                                 control=overload_control())
    scale = workload.duration / SURGE["duration"]
    plan = FaultPlan().node_crash(SURGE["crash_at"] * scale, "node1",
                                  duration=SURGE["outage"] * scale)
    injector = FaultInjector.for_cluster(cluster, plan).arm()
    cluster.prepare_workload(workload)
    return cluster, injector


def surge_run(built, workload: Workload, obs_level: str, jobs: int):
    cluster, injector = built
    with observed(obs_level):
        result = cluster.run_workload(workload)
    return result, injector.timeline()


def surge_reduce(out, workload: Workload) -> Outcome:
    """Digest: completions, the shed/abort breakdown, p50/p99, the fault
    timeline and the control-plane summary."""
    result, faults = out
    recorder = result.recorder
    completed = len(recorder.measured())
    breakdown: Dict[str, int] = {}
    for _fn, _arrival, reason in result.failed:
        breakdown[reason] = breakdown.get(reason, 0) + 1
    return Outcome(arrivals=workload.n_invocations,
                   resolved=completed + len(result.failed),
                   digest=blake({"completed": completed,
                                 "failed": dict(sorted(breakdown.items())),
                                 "p50": recorder.e2e_percentile(50),
                                 "p99": recorder.e2e_percentile(99),
                                 "faults": faults,
                                 "control": result.control}))


def surge_trace_seeds(seed: int) -> FrozenSet[int]:
    return frozenset(seed + i for i in range(int(SURGE["n_nodes"])))


# -- registry --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One workload; why each is in the benchmark is in README.md."""

    name: str
    inputs: Callable[[int, float], Workload]
    build: Callable[[int, Workload], Any]
    #: Runs the built scenario (obs level, PDES workers); raw outputs.
    run: Callable[[Any, Workload, str, int], Any]
    #: Raw outputs -> arrivals, resolved count and digest.
    reduce: Callable[[Any, Workload], Outcome]
    #: Root seeds of the trace RNGs a run on ``seed`` draws from.
    trace_seeds: Callable[[int], FrozenSet[int]]


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("w2_trenv", w2_inputs, w2_build, w2_run, w2_reduce,
             w2_trace_seeds),
    Scenario("rack_micro", rack_inputs, rack_build, rack_run, rack_reduce,
             rack_trace_seeds),
    Scenario("surge_control", surge_inputs, surge_build, surge_run,
             surge_reduce, surge_trace_seeds),
)}


def disjoint_trace_seeds(scenario: Scenario, seeds: Tuple[int, ...]) -> bool:
    """True when no two of ``seeds`` share a trace-RNG root seed."""
    seen: set = set()
    for seed in seeds:
        mine = scenario.trace_seeds(seed)
        if seen & mine:
            return False
        seen |= mine
    return True
