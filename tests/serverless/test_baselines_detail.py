"""Detailed behaviour of the lazy-restore VM baselines."""

import pytest

from repro.node import Node
from repro.serverless.baselines import (FaasnapPlatform, ReapPlatform,
                                        UffdTmpfsPool)
from repro.sim.engine import Delay
from repro.workloads.functions import function_by_name


def single_invocation(platform_cls, fn="CH", **kwargs):
    node = Node(cores=64, seed=37)
    platform = platform_cls(node, **kwargs)
    platform.register_function(function_by_name(fn))

    def driver():
        r = yield from platform.invoke(fn)
        return r

    return node, platform, node.sim.run_process(driver())


class TestUffdTmpfsPool:
    def test_per_page_cost_includes_uffd_and_exit(self):
        pool = UffdTmpfsPool(1 << 30)
        per_page = pool.fetch_time(1)
        lat = pool.latency
        assert per_page > lat.mem.userfaultfd_fault
        assert per_page < 20e-6

    def test_not_byte_addressable(self):
        assert not UffdTmpfsPool(1 << 30).byte_addressable
        assert UffdTmpfsPool(1 << 30).read_overhead(1000) == 0.0


class TestPrefetchDistinction:
    def test_reap_blocks_on_full_ws_read(self):
        _n, _p, reap = single_invocation(ReapPlatform)
        _n, _p, snap = single_invocation(FaasnapPlatform)
        # FaaSnap overlaps most of the working-set read with execution.
        assert snap.startup < reap.startup
        profile = function_by_name("CH")
        ws_read = profile.touched_pages * 4096 * 0.53e-3 / (1 << 20)
        assert reap.startup - snap.startup > 0.4 * ws_read

    def test_both_materialise_working_set_memory(self):
        node_r, _p, _r = single_invocation(ReapPlatform)
        node_f, _p, _r = single_invocation(FaasnapPlatform)
        # Same memory footprint (modulo per-platform trace streams):
        # the difference is timing, not residency.
        assert (node_r.memory.usage["vm-guest-anon"]
                == pytest.approx(node_f.memory.usage["vm-guest-anon"],
                                 rel=0.05))
        assert node_r.memory.usage["vm-guest-anon"] > 0


class TestNetnsPoolVariants:
    def test_non_plus_pays_netns_every_time(self):
        node = Node(cores=64, seed=37)
        platform = ReapPlatform(node, netns_pool=False, keep_alive=1.0)
        platform.register_function(function_by_name("DH"))

        def driver():
            a = yield from platform.invoke("DH")
            yield Delay(5.0)           # warm instance expires (1 s)
            b = yield from platform.invoke("DH")
            return a, b

        a, b = node.sim.run_process(driver())
        # Without the pool, the second start pays netns again: the two
        # cold startups are comparable.
        assert b.startup > 0.7 * a.startup

    def test_plus_recycles_netns(self):
        node = Node(cores=64, seed=37)
        platform = ReapPlatform(node, netns_pool=True, keep_alive=1.0)
        platform.register_function(function_by_name("DH"))

        def driver():
            a = yield from platform.invoke("DH")
            yield Delay(5.0)
            b = yield from platform.invoke("DH")
            return a, b

        a, b = node.sim.run_process(driver())
        # The recycled netns saves ~80 ms on the second start.
        assert a.startup - b.startup > 0.05


class TestVMFileIO:
    def test_guest_cache_grows_with_invocations(self):
        node = Node(cores=64, seed=37)
        platform = ReapPlatform(node)
        platform.register_function(function_by_name("VP"))   # 130 MB IO

        def driver():
            yield from platform.invoke("VP")

        node.sim.run_process(driver())
        profile = function_by_name("VP")
        # Guest cache holds the VM's file reads and writes.
        assert node.memory.usage["vm-guest-cache"] > 0.7 * profile.file_io_bytes

    def test_host_cache_duplicates_guest(self):
        node = Node(cores=64, seed=37)
        platform = ReapPlatform(node)
        platform.register_function(function_by_name("VP"))

        def driver():
            yield from platform.invoke("VP")

        node.sim.run_process(driver())
        assert node.memory.usage["host-page-cache"] > 0
