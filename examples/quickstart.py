#!/usr/bin/env python3
"""Quickstart: the mm-template lifecycle on a simulated host.

Walks the Figure 12 workflow end to end:

1. checkpoint a function into a snapshot image,
2. deduplicate it into a CXL memory pool and build an mm-template,
3. attach the template to two fresh processes (metadata-only copy),
4. run an invocation and watch copy-on-write keep instances isolated.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.mm_template import MMTemplateRegistry, build_template_for_function
from repro.criu.images import SnapshotImage
from repro.mem.address_space import AddressSpace
from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool, DedupStore
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG
from repro.workloads.functions import function_by_name


def main():
    sim = Simulator()
    profile = function_by_name("JS")   # 94.9 MB Python JSON function
    print(f"function: {profile.name} ({profile.description}), "
          f"{profile.mem_bytes / MB:.1f} MB image, "
          f"{profile.n_threads} threads")

    # 1. Offline: checkpoint the bootstrapped function.
    image = SnapshotImage.from_profile(profile)
    print(f"snapshot: {image.total_pages} pages across "
          f"{len(image.vmas)} VMAs; template metadata is only "
          f"{image.metadata_bytes / 1024:.0f} KiB")

    # 2. Deduplicate into the rack's CXL pool and build the template.
    pool = CXLPool(capacity_bytes=8 * GB)
    store = DedupStore(pool)
    registry = MMTemplateRegistry(sim)
    template = build_template_for_function(registry, image, store)
    print(f"pool now holds {pool.used_bytes / MB:.1f} MB "
          f"(dedup ratio so far: {store.dedup_ratio:.0%})")

    # Register a second function of the same language: the shared
    # runtime pages dedup away.
    image_dh = SnapshotImage.from_profile(function_by_name("DH"))
    build_template_for_function(registry, image_dh, store)
    print(f"after adding DH: pool {pool.used_bytes / MB:.1f} MB, "
          f"dedup ratio {store.dedup_ratio:.0%}")

    # 3. Attach to two instances: metadata copy only, microseconds.
    inst_a, inst_b = AddressSpace("inst-a"), AddressSpace("inst-b")

    def attach_both():
        t0 = sim.now
        yield from registry.mmt_attach(template, inst_a)
        yield from registry.mmt_attach(template, inst_b)
        return sim.now - t0

    elapsed = sim.run_process(attach_both())
    print(f"two attaches took {elapsed * 1e3:.2f} ms simulated "
          f"(vs ~{(0.004 + image.nbytes * 0.53e-3 / MB) * 1e3:.0f} ms "
          f"for one copy-based restore)")

    # 4. Execute: reads are free (valid CXL PTEs); writes CoW locally.
    trace = profile.make_trace(SeededRNG(42))
    outcome = inst_a.access(trace.read_pages, trace.write_pages,
                            trace.read_loads)
    print(f"invocation on inst-a: {outcome.cow_faults} CoW faults, "
          f"{outcome.major_faults} major faults, "
          f"{inst_a.local_bytes / MB:.1f} MB now private")
    print(f"inst-b untouched: {inst_b.local_bytes / MB:.1f} MB private "
          f"(isolation preserved)")
    print(f"read-only share of touched pages: "
          f"{trace.read_only_ratio:.0%} (paper band: 24-90%)")


if __name__ == "__main__":
    main()
