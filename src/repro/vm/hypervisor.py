"""Timed hypervisor operations: spawn, boot, snapshot restore paths.

Restore modes compared in the paper:

* ``COPY`` — vanilla Cloud Hypervisor: full guest-memory copy,
  >700 ms for a 2 GB guest (§9.6.1).
* ``LAZY`` — REAP/FaaSnap-style: resume from snapshot with a userfaultfd
  handler; the recorded working set is prefetched (eagerly for REAP,
  asynchronously for FaaSnap) and stragglers fault on demand.
* ``TEMPLATE`` — TrEnv's enhanced CH: restore memory via one mmap of a
  DAX device / memory template; pages populate lazily at near-zero cost.
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

from repro.kernel.cgroup import CgroupLimits
from repro.mem.accounting import MemoryAccountant
from repro.mem.page_cache import FileIdRegistry, PageCache
from repro.node import Node
from repro.sim.engine import Delay
from repro.vm.microvm import GuestConfig, MicroVM, VMState


class RestoreMode(enum.Enum):
    COPY = "copy"
    LAZY = "lazy"
    TEMPLATE = "template"


class Hypervisor:
    """Creates microVMs on a node, inside jailer sandboxes."""

    def __init__(self, node: Node, host_cache: Optional[PageCache] = None,
                 file_registry: Optional[FileIdRegistry] = None):
        self.node = node
        self.host_cache = host_cache or PageCache(
            "host-cache",
            on_delta=lambda d: node.memory.charge_pages("host-page-cache", d))
        self.files = file_registry or FileIdRegistry()
        self.boots = 0
        self.restores = 0

    # -- sandboxing the VMM (jailer) ----------------------------------------------

    def create_jailer_sandbox(self, netns_pooled: bool = False,
                              clone_into_cgroup: bool = False,
                              e2b_costs: bool = False) -> Generator:
        """Timed: the isolation shell around the VMM process.

        ``e2b_costs`` applies the measured E2B setup costs (§9.6.1:
        ~97 ms network + ~63 ms cgroup migration); otherwise the generic
        namespace/cgroup costs apply.  ``netns_pooled`` skips network
        setup (the REAP+/FaaSnap+/TrEnv enhancement).
        """
        node = self.node
        lat = node.latency
        if not netns_pooled:
            if e2b_costs:
                yield Delay(lat.vm.net_setup_e2b)
            else:
                yield from node.namespaces.create_netns()
        cgroup = yield from node.cgroups.create("jailer", CgroupLimits())
        if e2b_costs and not clone_into_cgroup:
            yield Delay(lat.vm.cgroup_migrate_e2b)
        elif clone_into_cgroup:
            yield from node.cgroups.clone_into(0, cgroup)
        else:
            yield from node.cgroups.migrate(0, cgroup)
        return cgroup

    # -- VM lifecycle -----------------------------------------------------------------

    def spawn_vm(self, config: GuestConfig, name: str = "") -> Generator:
        """Timed: start the VMM process (no guest boot yet)."""
        yield Delay(self.node.latency.vm.vmm_spawn)
        vm = MicroVM(config, self.node.memory, self.host_cache, self.files,
                     name=name)
        vm.charge_base_overheads()
        return vm

    def boot_cold(self, vm: MicroVM) -> Generator:
        """Timed: full guest kernel boot."""
        yield Delay(self.node.latency.vm.guest_boot)
        vm.state = VMState.RUNNING
        self.boots += 1
        return vm

    def restore_snapshot(self, vm: MicroVM, snapshot_bytes: int,
                         mode: RestoreMode) -> Generator:
        """Timed: bring a paused snapshot back to RUNNING.

        ``snapshot_bytes`` is the resident guest memory recorded in the
        snapshot (guest kernel + bootstrapped function/agent state).
        """
        lat = self.node.latency.vm
        if mode == RestoreMode.COPY:
            yield Delay(lat.restore_base
                        + snapshot_bytes * lat.restore_copy_per_byte)
        elif mode == RestoreMode.LAZY:
            # Register uffd + map the snapshot file; pages come later.
            yield Delay(lat.restore_base)
        elif mode == RestoreMode.TEMPLATE:
            # One mmap of the template/DAX device (§7).
            yield Delay(lat.mmap_restore)
        else:
            raise ValueError(f"unknown restore mode: {mode}")
        yield Delay(lat.snapshot_resume)
        vm.state = VMState.RUNNING
        self.restores += 1
        return vm

    def destroy_vm(self, vm: MicroVM) -> Generator:
        yield Delay(self.node.latency.proc.kill_process)
        vm.release_all()
