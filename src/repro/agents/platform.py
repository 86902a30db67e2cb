"""VM-based agent platforms: E2B, E2B+, vanilla CH, and TrEnv(-S).

Differences under test (§9.6):

================  ==========  ===============  =====================
platform          storage     memory restore   sandbox setup
================  ==========  ===============  =====================
E2B               virtio-blk  lazy (uffd)      netns 97 ms + cgroup
                                               migration 63 ms
E2B+              virtiofs    lazy (uffd)      same as E2B (+DAX map)
                  (DAX)
vanilla CH        virtio-blk  full copy        generic jailer
TrEnv / TrEnv-S   pmem union  mm-template      repurposable jailer
                                               pool + CLONE_INTO
================  ==========  ===============  =====================

TrEnv-S is TrEnv with browser sharing enabled (§6.2).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.agents.browser import BrowserPool
from repro.agents.llm import ReplayLLMServer
from repro.agents.runner import AgentResult, AgentWorkflow
from repro.agents.spec import AgentSpec
from repro.mem.layout import GB, MB, pages_for_bytes
from repro.mem.pools import CXLPool, DedupStore
from repro.node import Node
from repro.serverless.baselines import UffdTmpfsPool
from repro.serverless.metrics import LatencyRecorder
from repro.sim.engine import Delay
from repro.sim.rng import SeededRNG
from repro.vm.ept import ExtendedPageTable
from repro.vm.hypervisor import Hypervisor, RestoreMode
from repro.vm.microvm import GuestConfig, MicroVM, StorageMode

#: Agent-session handshake common to all platforms (sandbox API, envd
#: startup, vsock attach) — on top of the VM-level costs.
SESSION_INIT = 0.15

#: Pages the agent runtime touches while coming back from the snapshot
#: (framework import working set), capped like a real runtime's RSS.
_RESTORE_WS_CAP_BYTES = 100 * MB
_RESTORE_WS_FRACTION = 0.6


def _restore_ws_pages(spec: AgentSpec) -> int:
    ws = min(spec.mem_bytes, _RESTORE_WS_CAP_BYTES) * _RESTORE_WS_FRACTION
    return int(ws // 4096)


#: Agent snapshots share a per-framework runtime prefix (python + agent
#: framework libraries), dedupable across agents in the pool.
_FRAMEWORK_SHARED_BYTES = 30 * MB
_AGENT_SPACE = 3 << 44


def _agent_content_ids(spec: AgentSpec) -> np.ndarray:
    total = pages_for_bytes(min(spec.mem_bytes, _RESTORE_WS_CAP_BYTES))
    shared = min(total, _FRAMEWORK_SHARED_BYTES // 4096)
    fw_base = _AGENT_SPACE + (hash(spec.framework) % 1009) * (1 << 28)
    ag_base = _AGENT_SPACE + (1 << 40) + (hash(spec.name) % 1009) * (1 << 28)
    ids = np.empty(total, dtype=np.int64)
    ids[:shared] = fw_base + np.arange(shared)
    ids[shared:] = ag_base + np.arange(total - shared)
    return ids


class AgentPlatform:
    """Base agent platform; subclasses set storage/restore/sandbox."""

    name = "agent-base"
    storage = StorageMode.VIRTIO_BLK
    restore_mode = RestoreMode.LAZY
    browser_sharing = False
    #: Pre-populate second-level mappings from the template (§8.1.3)?
    ept_prepopulate = False

    def __init__(self, node: Node, seed: int = 0,
                 browser_sharing: Optional[bool] = None):
        self.node = node
        self.hypervisor = Hypervisor(node)
        self.llm = ReplayLLMServer()
        if browser_sharing is not None:
            self.browser_sharing = browser_sharing
        self.browsers = BrowserPool(node.sim, node.memory, node.latency,
                                    sharing=self.browser_sharing)
        self.recorder = LatencyRecorder()
        self.rng = SeededRNG(seed, f"{self.name}/agents")
        self.snapshot_store = DedupStore(self._make_snapshot_pool())
        self.sessions = 0

    def _make_snapshot_pool(self):
        """Where guest snapshots live: tmpfs via uffd by default."""
        return UffdTmpfsPool(64 * GB, self.node.latency)

    # -- per-platform hooks ----------------------------------------------------------

    def _sandbox_setup(self) -> Generator:
        """Timed: isolation shell around the VMM."""
        yield from self.hypervisor.create_jailer_sandbox()

    def _snapshot_bytes(self, spec: AgentSpec) -> int:
        return min(spec.mem_bytes, _RESTORE_WS_CAP_BYTES)

    def _guest_restore(self, vm: MicroVM, spec: AgentSpec) -> Generator:
        """Timed: bring the agent runtime back through second-level
        paging (two-dimensional page tables, §8.1.3).

        The guest's snapshot region is bound to the platform's snapshot
        pool; the runtime's working set is then touched — via EPT
        violations (lazy platforms) or pre-populated direct loads
        (TrEnv).  Returns the EPT so teardown can release its pages.
        """
        node = self.node
        content = _agent_content_ids(spec)
        block = self.snapshot_store.store_image(content)
        ept = ExtendedPageTable(
            len(content), node.latency,
            on_local_delta=node.memory.page_delta_hook("vm-guest-anon"))
        ept.bind_template(block)
        ws_pages = _restore_ws_pages(spec)
        rng = self.rng.fork(f"{spec.name}/ws")
        reads = rng.sample_pages(len(content), ws_pages)
        writes = reads[:max(1, int(len(reads) * 0.2))].copy()
        reads.sort(); writes.sort()
        if self.ept_prepopulate:
            hot = np.zeros(len(content), dtype=bool)
            hot[reads] = True
            ept.prepopulate(hot)   # preprocessing-time cost, off path
        outcome = ept.access(reads, writes)
        cost = ept.access_time(outcome)
        if cost > 0:
            yield from node.cpu.compute(cost)
        vm.ept = ept
        return ept

    # -- session lifecycle ----------------------------------------------------------------

    def run_agent(self, spec: AgentSpec, arrival: Optional[float] = None
                  ) -> Generator:
        """Timed: one full agent session; returns an AgentResult."""
        node = self.node
        arrival = node.now if arrival is None else arrival
        t0 = node.now
        yield Delay(SESSION_INIT)
        yield from self._sandbox_setup()
        vm = yield from self.hypervisor.spawn_vm(
            GuestConfig(vcpus=1, mem_bytes=spec.vm_mem_bytes,
                        storage=self.storage),
            name=f"{self.name}-{spec.name}")
        yield from self.hypervisor.restore_snapshot(
            vm, self._snapshot_bytes(spec), self.restore_mode)
        ept = yield from self._guest_restore(vm, spec)
        startup = node.now - t0

        workflow = AgentWorkflow(spec)
        t1 = node.now
        # The guest's compute is capped by its vCPU allocation (1 vCPU
        # per agent VM, §9.6 configurations).
        from repro.sim.cpu import VCPUQuota
        quota = VCPUQuota(node.cpu, vm.config.vcpus)
        active, llm_wait = yield from workflow.run(quota, self.llm, vm,
                                                   self.browsers)
        e2e = node.now - t1

        ept.release_local()  # on_local_delta hook uncharges node.memory
        yield from self._teardown(vm)
        self.sessions += 1
        result = AgentResult(agent=spec.name, startup=startup, e2e=e2e,
                             active_time=active, llm_wait=llm_wait,
                             arrival=arrival)
        self.recorder.record(_to_invocation(result))
        return result

    def _teardown(self, vm: MicroVM) -> Generator:
        yield from self.hypervisor.destroy_vm(vm)


def _to_invocation(result: AgentResult):
    from repro.serverless.metrics import InvocationResult
    return InvocationResult(function=result.agent, arrival=result.arrival,
                            start_kind="session", startup=result.startup,
                            exec=result.e2e,
                            e2e=result.startup + result.e2e)


class E2BPlatform(AgentPlatform):
    """E2B: Firecracker-style sandboxes with measured §9.6.1 costs."""

    name = "e2b"
    storage = StorageMode.VIRTIO_BLK
    restore_mode = RestoreMode.LAZY

    def __init__(self, node: Node, seed: int = 0,
                 browser_sharing: Optional[bool] = None):
        super().__init__(node, seed, browser_sharing)
        self._setups_in_flight = 0

    def _sandbox_setup(self) -> Generator:
        lat = self.node.latency
        self._setups_in_flight += 1
        try:
            # §9.6.1: ~97 ms network setup, contended like any netns
            # creation, plus ~63 ms cgroup migration.
            contention = lat.ns.netns_per_concurrent * (self._setups_in_flight - 1)
            yield Delay(min(lat.vm.net_setup_e2b + contention, lat.ns.netns_max))
            yield from self.node.cgroups.create("e2b-jail")
            yield Delay(lat.vm.cgroup_migrate_e2b)
        finally:
            self._setups_in_flight -= 1


class E2BPlusPlatform(E2BPlatform):
    """E2B + RunD rootfs mapping: shared host cache, but the shared-memory
    (memfd) guest backing forecloses CoW memory templates (§3.3)."""

    name = "e2b+"
    storage = StorageMode.VIRTIOFS_DAX

    def _sandbox_setup(self) -> Generator:
        yield from super()._sandbox_setup()
        # Extra DAX window mapping setup for the shared rootfs.
        yield Delay(0.02)


class VanillaCHPlatform(AgentPlatform):
    """Unmodified Cloud Hypervisor: full-copy memory restore (§9.6.1)."""

    name = "ch"
    storage = StorageMode.VIRTIO_BLK
    restore_mode = RestoreMode.COPY

    def _snapshot_bytes(self, spec: AgentSpec) -> int:
        # Vanilla CH copies the whole guest RAM image.
        return spec.vm_mem_bytes

    def _guest_restore(self, vm: MicroVM, spec: AgentSpec) -> Generator:
        # Everything is resident after the full copy: charge the
        # snapshot's pages, no faults.
        node = self.node
        content = _agent_content_ids(spec)
        ept = ExtendedPageTable(
            len(content), node.latency,
            on_local_delta=node.memory.page_delta_hook("vm-guest-anon"))
        ept.bind_template(self.snapshot_store.store_image(content))
        ept.state[:] = 1   # PTE_LOCAL: the copy materialised everything
        ept._charge(len(content))
        vm.ept = ept
        return ept
        yield  # pragma: no cover


class TrEnvVMPlatform(AgentPlatform):
    """TrEnv for VMs: repurposable jailer sandboxes + mm-template restore
    + pmem union storage.  With ``browser_sharing=True`` this is TrEnv-S."""

    name = "trenv-vm"
    storage = StorageMode.PMEM_UNION
    restore_mode = RestoreMode.TEMPLATE
    ept_prepopulate = True

    def __init__(self, node: Node, seed: int = 0,
                 browser_sharing: Optional[bool] = None,
                 prewarmed_jailers: int = 32):
        super().__init__(node, seed, browser_sharing)
        if self.browser_sharing:
            self.name = "trenv-s"
        # The platform keeps a pool of recycled jailer sandboxes (§6);
        # it is replenished continuously, so steady state has pool hits.
        self._jailer_pool = prewarmed_jailers

    def _sandbox_setup(self) -> Generator:
        node = self.node
        if self._jailer_pool > 0:
            # Repurpose a pooled jailer: overlay swap + cgroup limits.
            self._jailer_pool -= 1
            yield Delay(node.latency.rootfs.reconfig_mount * 2)
            yield from node.cgroups.clone_into(0, _dummy_cgroup())
        else:
            yield from node.namespaces.create_netns()
            yield from node.cgroups.create("trenv-jail")
            yield from node.cgroups.clone_into(0, _dummy_cgroup())

    def _make_snapshot_pool(self):
        # Agent snapshots live on the rack's CXL pool, directly mapped.
        return CXLPool(256 * GB, self.node.latency)

    def _teardown(self, vm: MicroVM) -> Generator:
        yield from self.hypervisor.destroy_vm(vm)
        self._jailer_pool += 1


def _dummy_cgroup():
    from repro.kernel.cgroup import Cgroup, CgroupLimits
    return Cgroup("jail", CgroupLimits())
