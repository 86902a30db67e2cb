import pytest

from repro.criu.images import SnapshotImage
from repro.criu.restore import CRIUEngine
from repro.kernel.process import ProcessTable
from repro.mem.layout import MB
from repro.sim.engine import Simulator
from repro.workloads.functions import function_by_name


def make_engine():
    sim = Simulator()
    procs = ProcessTable(sim)
    return sim, CRIUEngine(sim, procs)


def restore(engine, sim, image):
    def proc():
        p = yield from engine.restore_full(image)
        return p, sim.now

    return sim.run_process(proc())


def test_restore_materialises_all_pages():
    sim, engine = make_engine()
    image = SnapshotImage.from_profile(function_by_name("JS"))
    proc, _t = restore(engine, sim, image)
    assert proc.address_space.local_pages == image.total_pages
    assert proc.threads == image.n_threads
    assert len(proc.fds) == 3 + image.n_fds


def test_restore_time_scales_with_image_size():
    """Figure 4: memory copy dominates; 60 MB ~ 60 ms, 360 MB ~ 220 ms."""
    sim1, e1 = make_engine()
    _p, t_small = restore(e1, sim1, SnapshotImage.from_profile(
        function_by_name("DH")))    # 50 MB
    sim2, e2 = make_engine()
    _p, t_large = restore(e2, sim2, SnapshotImage.from_profile(
        function_by_name("IR")))    # 855 MB
    assert t_large > 5 * t_small
    # 855 MB at ~0.53 ms/MB ≈ 450 ms; allow process misc on top.
    assert 0.3 < t_large < 0.8


def test_small_image_restore_in_tens_of_ms():
    """§3.3: a ~60 MB image takes over 60 ms to restore."""
    sim, engine = make_engine()
    image = SnapshotImage.from_profile(function_by_name("DH"))  # 50 MB
    _p, t = restore(engine, sim, image)
    assert 0.03 < t < 0.12


def test_restore_stats_tracked():
    sim, engine = make_engine()
    image = SnapshotImage.from_profile(function_by_name("JS"))
    restore(engine, sim, image)
    assert engine.stats.full_restores == 1
    assert engine.stats.bytes_copied == image.nbytes
    assert engine.stats.mmap_calls == len(image.vmas)
    assert engine.stats.threads_restored == image.n_threads - 1


def test_checkpoint_timed_and_counted():
    sim, engine = make_engine()
    image = SnapshotImage.from_profile(function_by_name("JS"))

    def proc():
        class FakeProc:
            pass
        yield from engine.checkpoint(FakeProc(), image)
        return sim.now

    t = sim.run_process(proc())
    assert t > 0.04  # dump cost is at least the memory walk
    assert engine.stats.snapshots == 1


def test_restore_charges_accountant():
    from repro.mem.accounting import MemoryAccountant
    sim, engine = make_engine()
    acct = MemoryAccountant()
    image = SnapshotImage.from_profile(function_by_name("DH"))

    def proc():
        p = yield from engine.restore_full(
            image, on_local_delta=acct.page_delta_hook("anon"))
        return p

    p = sim.run_process(proc())
    assert acct.current_bytes == p.address_space.local_bytes
    assert acct.current_mb == pytest.approx(50.4, rel=0.01)


def test_threads_restoration_cost_visible_for_pr():
    """PR restores 395 threads; thread recovery must cost visibly more."""
    sim1, e1 = make_engine()
    _p, t_pr = restore(e1, sim1, SnapshotImage.from_profile(
        function_by_name("PR")))
    sim2, e2 = make_engine()
    _p, t_js = restore(e2, sim2, SnapshotImage.from_profile(
        function_by_name("JS")))
    # PR's image is only moderately bigger but has 28x the threads.
    pr_misc = 395 * 55e-6
    assert t_pr - t_js > pr_misc / 2
