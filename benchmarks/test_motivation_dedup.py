"""Motivation (§1/§3.2): state duplication and memory stranding.

Reproduces the claims TrEnv is built on: concurrent sandboxes hold
heavily duplicated state (Medes: ~80% occurrence), and keep-alive
caching strands large amounts of idle memory — both of which TrEnv's
shared pool removes by construction.
"""

from repro.bench import format_table
from repro.mem.dedup_analysis import duplication_report, stranding_report
from repro.node import Node
from repro.serverless.baselines import FaasdPlatform
from repro.sim.engine import Delay
from repro.workloads.functions import function_by_name

FUNCS = ("DH", "JS", "CH", "PR")


def run_motivation(instances_per_fn=3):
    node = Node(seed=31)
    platform = FaasdPlatform(node)
    for fn in FUNCS:
        platform.register_function(function_by_name(fn))

    def one(fn):
        yield from platform.invoke(fn)

    # Populate the warm pool with several instances of each function
    # (concurrent burst so they cannot share a single instance).
    for fn in FUNCS:
        for _ in range(instances_per_fn):
            node.sim.spawn(one(fn))
    # Sample while the instances sit warm (before keep-alive expiry).
    node.sim.run(until=60.0)

    spaces = [inst.space for inst in platform.warm.idle_instances()]
    dup = duplication_report(spaces)
    strand = stranding_report(platform)
    return {
        "warm_instances": len(spaces),
        "duplication_occurrence": dup.duplication_occurrence,
        "duplication_ratio": dup.duplication_ratio,
        "stranded_mb": strand.idle_bytes / (1 << 20),
        "stranding_ratio": strand.stranding_ratio,
    }


def test_motivation_duplication_and_stranding(run_once):
    data = run_once(run_motivation)

    print()
    print(format_table(
        "Motivation: duplication + stranding across warm faasd instances",
        ("metric", "value"),
        [(k, v) for k, v in data.items()], width=26))

    # §1: ~80% occurrence of state duplication across sandboxes.
    assert data["duplication_occurrence"] > 0.7
    # Multiple copies of each function's image: a large share of the
    # resident bytes is redundant.
    assert data["duplication_ratio"] > 0.5
    # Keep-alive strands all of this memory while instances idle.
    assert data["stranding_ratio"] > 0.95
    assert data["stranded_mb"] > 500
