import pytest

from repro.kernel.cgroup import Cgroup, CgroupLimits, CgroupManager
from repro.sim.engine import Simulator


def run(gen):
    sim = Simulator()
    mgr = CgroupManager(sim)
    return sim, mgr


def test_create_within_paper_bounds():
    sim = Simulator()
    mgr = CgroupManager(sim)

    def proc():
        cg = yield from mgr.create("sandbox-1")
        return cg, sim.now

    cg, now = sim.run_process(proc())
    assert isinstance(cg, Cgroup)
    assert 0.016 <= now <= 0.032


def test_migrate_within_paper_bounds():
    sim = Simulator()
    mgr = CgroupManager(sim)

    def proc():
        cg = yield from mgr.create("sandbox-1")
        start = sim.now
        yield from mgr.migrate(1234, cg)
        return cg, sim.now - start

    cg, elapsed = sim.run_process(proc())
    assert 0.010 <= elapsed <= 0.050
    assert 1234 in cg.procs


def test_clone_into_is_two_orders_faster():
    sim = Simulator()
    mgr = CgroupManager(sim)

    def proc():
        cg = yield from mgr.create("sandbox-1")
        start = sim.now
        yield from mgr.clone_into(1234, cg)
        return sim.now - start

    elapsed = sim.run_process(proc())
    assert 0.0001 <= elapsed <= 0.0003


def test_reconfigure_updates_limits():
    sim = Simulator()
    mgr = CgroupManager(sim)

    def proc():
        cg = yield from mgr.create("pooled", CgroupLimits(cpu_quota=1.0))
        yield from mgr.reconfigure(cg, CgroupLimits(cpu_quota=2.0,
                                               memory_bytes=4 << 30))
        return cg

    cg = sim.run_process(proc())
    assert cg.limits.cpu_quota == 2.0
    assert cg.limits.memory_bytes == 4 << 30


def test_stats_track_operations():
    sim = Simulator()
    mgr = CgroupManager(sim)

    def proc():
        cg = yield from mgr.create("a")
        yield from mgr.migrate(1, cg)
        yield from mgr.clone_into(2, cg)
        yield from mgr.reconfigure(cg, CgroupLimits())
        return cg

    sim.run_process(proc())
    assert mgr.stats == {"create": 1, "migrate": 1, "clone_into": 1,
                         "reconfigure": 1}


def test_remove_proc_and_empty():
    sim = Simulator()
    mgr = CgroupManager(sim)

    def proc():
        cg = yield from mgr.create("a")
        yield from mgr.clone_into(7, cg)
        return cg

    cg = sim.run_process(proc())
    assert not cg.empty
    mgr.remove_proc(7, cg)
    assert cg.empty


def test_limits_equality():
    assert CgroupLimits() == CgroupLimits()
    assert CgroupLimits(cpu_quota=2.0) != CgroupLimits()


def test_deterministic_costs_per_seed():
    def run_once():
        sim = Simulator()
        mgr = CgroupManager(sim)

        def proc():
            yield from mgr.create("x")
            return sim.now

        return sim.run_process(proc())

    assert run_once() == run_once()
