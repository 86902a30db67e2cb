import numpy as np
import pytest

from repro.kernel.cgroup import CgroupManager
from repro.kernel.process import Process, ProcessTable
from repro.sim.engine import Simulator


def setup():
    sim = Simulator()
    cgm = CgroupManager(sim)
    table = ProcessTable(sim, cgroups=cgm)
    return sim, cgm, table


def test_spawn_allocates_pid_and_registers():
    sim, _cgm, table = setup()

    def proc():
        p = yield from table.spawn("worker")
        return p

    p = sim.run_process(proc())
    assert isinstance(p, Process)
    assert p.pid >= 100
    assert table.procs[p.pid] is p
    assert table.live_count == 1


def test_spawn_into_cgroup_faster_than_migrate():
    def run(into):
        sim, cgm, table = setup()

        def proc():
            cg = yield from cgm.create("sb")
            start = sim.now
            yield from table.spawn("w", cgroup=cg, into_cgroup=into)
            return sim.now - start

        return sim.run_process(proc())

    fast = run(True)
    slow = run(False)
    assert fast < slow
    assert slow - fast > 0.009  # at least the min migration cost


def test_spawn_with_cgroup_requires_manager():
    sim = Simulator()
    table = ProcessTable(sim)
    from repro.kernel.cgroup import Cgroup, CgroupLimits
    cg = Cgroup("x", CgroupLimits())

    def proc():
        yield from table.spawn("w", cgroup=cg)

    with pytest.raises(RuntimeError):
        sim.run_process(proc())


def test_clone_threads():
    sim, _cgm, table = setup()

    def proc():
        p = yield from table.spawn("w")
        yield from table.clone_threads(p, 13)
        return p

    p = sim.run_process(proc())
    assert p.threads == 14


def test_clone_threads_negative_rejected():
    sim, _cgm, table = setup()

    def proc():
        p = yield from table.spawn("w")
        yield from table.clone_threads(p, -1)

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_kill_releases_memory_and_cgroup():
    sim, cgm, table = setup()

    def proc():
        cg = yield from cgm.create("sb")
        p = yield from table.spawn("w", cgroup=cg, into_cgroup=True)
        p.address_space.add_vma("heap", 10)
        p.address_space.access(np.array([], dtype=np.int64),
                               np.arange(10))
        assert p.memory_bytes > 0
        yield from table.kill(p)
        return p, cg

    p, cg = sim.run_process(proc())
    assert not p.alive
    assert p.address_space.destroyed
    assert cg.empty
    assert table.live_count == 0


def test_kill_tree_reaps_children():
    sim, _cgm, table = setup()

    def proc():
        parent = yield from table.spawn("parent")
        child = yield from table.spawn("child", parent=parent)
        grand = yield from table.spawn("grand", parent=child)
        yield from table.kill_tree(parent)
        return parent, child, grand

    parent, child, grand = sim.run_process(proc())
    assert not parent.alive and not child.alive and not grand.alive
    assert table.live_count == 0


def test_kill_idempotent():
    sim, _cgm, table = setup()

    def proc():
        p = yield from table.spawn("w")
        yield from table.kill(p)
        yield from table.kill(p)
        return p

    p = sim.run_process(proc())
    assert not p.alive


def test_open_fd():
    p = Process(1, "x")
    fd = p.open_fd("socket:tcp")
    assert p.fds[fd] == "socket:tcp"
    assert fd == 3
