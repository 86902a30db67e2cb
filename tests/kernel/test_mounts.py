import pytest

from repro.kernel.mounts import MountTable, OverlayFS, SimpleFS
from repro.sim.engine import Simulator


def make_table():
    sim = Simulator()
    return sim, MountTable(sim)


class TestOverlayFS:
    def test_requires_lower_layer(self):
        with pytest.raises(ValueError):
            OverlayFS(())

    def test_write_lands_in_upper(self):
        fs = OverlayFS(("base",))
        fs.write_file("/tmp/out", 1000)
        assert fs.upper_bytes == 1000
        assert fs.dirty

    def test_delete_creates_whiteout(self):
        fs = OverlayFS(("base",))
        fs.delete_file("/etc/conf")
        assert not fs.read_visible("/etc/conf")
        assert fs.dirty

    def test_write_after_delete_restores_visibility(self):
        fs = OverlayFS(("base",))
        fs.delete_file("/a")
        fs.write_file("/a", 10)
        assert fs.read_visible("/a")

    def test_purge_upper_removes_all_modifications(self):
        fs = OverlayFS(("base",))
        fs.write_file("/a", 10)
        fs.write_file("/b", 20)
        fs.delete_file("/c")
        assert fs.purge_upper() == 3
        assert not fs.dirty
        assert fs.upper_bytes == 0
        # Purge does not clear the inode cache; a remount must do that.
        assert fs.stale_inode_cache

    def test_lower_layers_immutable_tuple(self):
        fs = OverlayFS(("base", "python-deps"))
        assert fs.lower_layers == ("base", "python-deps")


class TestMountTable:
    def test_mount_and_visible(self):
        sim, table = make_table()

        def proc():
            yield from table.mount("/sys", SimpleFS("sysfs"))

        sim.run_process(proc())
        assert table.visible("/sys").fstype == "sysfs"

    def test_overmount_shadows_and_umount_reveals(self):
        sim, table = make_table()
        base = OverlayFS(("base",), label="base")
        fn = OverlayFS(("fn-deps",), label="fn")

        def proc():
            yield from table.mount("/app", base)
            yield from table.mount("/app", fn, fast=True)
            assert table.visible("/app") is fn
            assert table.mount_depth("/app") == 2
            popped = yield from table.umount("/app")
            return popped

        popped = sim.run_process(proc())
        assert popped is fn
        assert table.visible("/app") is base

    def test_umount_empty_raises(self):
        sim, table = make_table()

        def proc():
            yield from table.umount("/nope")

        with pytest.raises(KeyError):
            sim.run_process(proc())

    def test_fast_mount_cheaper_than_cold(self):
        sim, table = make_table()

        def cold():
            yield from table.mount("/a", SimpleFS("tmpfs"))
            return sim.now

        cold_t = sim.run_process(cold())

        sim2, table2 = make_table()

        def fast():
            yield from table2.mount("/a", SimpleFS("tmpfs"), fast=True)
            return sim2.now

        fast_t = sim2.run_process(fast())
        assert fast_t < cold_t / 5

    def test_remount_clears_stale_cache(self):
        sim, table = make_table()
        fs = OverlayFS(("base",))
        fs.write_file("/x", 1)
        fs.purge_upper()

        def proc():
            yield from table.mount("/", fs)
            yield from table.remount("/")

        sim.run_process(proc())
        assert not fs.stale_inode_cache

    def test_mknod_and_pivot_root(self):
        sim, table = make_table()

        def proc():
            yield from table.mknod("/dev/null")
            yield from table.mknod("/dev/zero")
            yield from table.pivot_root()

        sim.run_process(proc())
        assert table.device_nodes == ["/dev/null", "/dev/zero"]
        assert table.root_pivoted
        assert table.stats["mknod"] == 2

    def test_mounted_paths_sorted(self):
        sim, table = make_table()

        def proc():
            yield from table.mount("/sys", SimpleFS("sysfs"))
            yield from table.mount("/proc", SimpleFS("proc"))

        sim.run_process(proc())
        assert table.mounted_paths() == ["/proc", "/sys"]
