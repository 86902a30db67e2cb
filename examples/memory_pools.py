#!/usr/bin/env python3
"""Memory-pool tour: CXL vs RDMA vs tiered, and cross-node sharing.

1. Executes the same function on T-CXL and T-RDMA and compares execution
   latency and node-local memory (Figure 22 / Figure 18b in miniature).
2. Builds a tiered pool (hot pages on CXL, cold on RDMA) — the Figure 1
   multi-layer architecture.
3. Registers the same functions from two simulated nodes against one
   shared pool: the rack stores a single deduplicated copy (§8.2).

Run:  python examples/memory_pools.py
"""

from repro.core.platform import TrEnvPlatform
from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool, TieredPool
from repro.node import Node
from repro.workloads.functions import FUNCTIONS, function_by_name


def backend_comparison(fn="IR"):
    print(f"Backend comparison on {fn}:")
    for label, make_pool in (
            ("t-cxl", lambda lat: CXLPool(64 * GB, lat)),
            ("t-rdma", lambda lat: RDMAPool(64 * GB, lat)),
            ("t-tiered", lambda lat: TieredPool(CXLPool(32 * GB, lat),
                                                RDMAPool(32 * GB, lat),
                                                hot_fraction=0.5))):
        node = Node(cores=8, seed=21)
        platform = TrEnvPlatform(node, make_pool(node.latency), name=label)
        platform.register_function(function_by_name(fn))

        def driver():
            r = yield from platform.invoke(fn)
            return r

        r = node.sim.run_process(driver())
        anon = node.memory.usage.get("function-anon", 0)
        print(f"  {label:9} exec {r.exec * 1e3:7.1f} ms, "
              f"node-local function memory {anon / MB:6.1f} MB")


def cross_node_sharing():
    print("\nCross-node sharing (one rack-level pool, two hosts):")
    pool = CXLPool(128 * GB)
    store = DedupStore(pool)
    total_image_mb = 0.0
    for host in range(2):
        node = Node(cores=8, seed=30 + host, name=f"host{host}")
        platform = TrEnvPlatform(node, pool, store=store,
                                 name=f"t-cxl-host{host}")
        for profile in FUNCTIONS:
            platform.register_function(profile)
            total_image_mb += profile.mem_bytes / MB
        print(f"  after host{host}: pool stores {pool.used_bytes / MB:7.1f} MB "
              f"of {total_image_mb:8.1f} MB presented "
              f"(dedup {store.dedup_ratio:.0%})")
    print("  -> the second host added nothing: every image was already "
          "in the rack pool")


def main():
    backend_comparison()
    cross_node_sharing()


if __name__ == "__main__":
    main()
