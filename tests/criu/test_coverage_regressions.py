"""Regression tests for checkpoint-coverage gaps fixed by the analyzer work.

Each test pins one field the CKPT1xx pass (or the differential oracle)
flagged as dumped-but-not-restored / not-dumped-at-all: the ephemeral-port
allocator, cpuacct, per-task CPU time and tids, post-create namespace
mutations (hostname, mounts), and plain-file fd tables.  Losing any of
these again turns a green suite red before the static pass even runs.
"""

import pytest

from repro.analysis.coverage import build_inventory
from repro.analysis.framework import SourceTree
from repro.analysis.ckptdiff import compare_containers
from repro.container import ContainerRuntime
from repro.criu import CheckpointEngine, CriuConfig, RestoreEngine
from repro.criu.restore import FullState
from repro.kernel.fs import OpenFile
from repro.net import World

from tests.criu.test_checkpoint_restore import make_container, run_gen
from tests.mutants import apply_mutant


@pytest.fixture
def world():
    return World(seed=23)


def full_roundtrip(world, container):
    """Freeze -> full checkpoint -> restore onto the backup kernel.

    Returns ``(image, restored)``; the original stays frozen so its state
    cannot drift between the dump and the assertions.
    """
    cfg = CriuConfig.nilicon()
    engine = CheckpointEngine(world.primary.kernel, cfg)

    def dump():
        yield from container.freeze()
        image = yield from engine.checkpoint(container, incremental=False)
        return image

    image = run_gen(world, dump())

    backup_rt = ContainerRuntime(world.backup.kernel, world.bridge)
    if container.spec.mounts and "vdb" not in world.backup.kernel.block_devices:
        world.backup.kernel.add_block_device("vdb")
        world.backup.kernel.mkfs("vdb", "datafs")
    state = FullState(
        spec=container.spec,
        processes=[
            {
                "comm": p.comm,
                "vmas": p.vmas,
                "pages": p.pages,
                "threads": p.threads,
                "fd_entries": p.fd_entries,
            }
            for p in image.processes
        ],
        sockets=image.sockets,
        namespaces=image.namespaces,
        cgroup=image.cgroup,
        fs_inode_entries=image.fs_inode_entries,
        fs_page_entries=image.fs_page_entries,
    )
    restorer = RestoreEngine(world.backup.kernel, cfg)

    def load():
        restored = yield from restorer.restore(backup_rt, state)
        return restored

    return image, run_gen(world, load())


def test_ephemeral_port_allocator_survives_failover(world):
    _rt, container = make_container(world)
    container.stack._next_ephemeral = 40_017  # 17 outbound connects so far
    image, restored = full_roundtrip(world, container)
    stack_desc = next(s for s in image.sockets if s["kind"] == "stack")
    assert stack_desc["next_ephemeral"] == 40_017
    assert restored.stack._next_ephemeral == 40_017


def test_cpuacct_counter_does_not_jump_backwards(world):
    _rt, container = make_container(world)
    container.cgroup.charge_cpu(54_321)
    before = container.cgroup.cpuacct_usage_us
    image, restored = full_roundtrip(world, container)
    assert image.cgroup["cpuacct_usage_us"] == before
    assert restored.cgroup.cpuacct_usage_us == before


def test_task_cpu_time_and_tids_roundtrip(world):
    _rt, container = make_container(world)
    proc = container.processes[0]
    proc.tasks[2].advance(777)
    _image, restored = full_roundtrip(world, container)
    rproc = restored.processes[0]
    assert [t.tid for t in rproc.tasks] == [t.tid for t in proc.tasks]
    assert rproc.tasks[2].cpu_time_us == proc.tasks[2].cpu_time_us
    assert rproc.cpu_time_us == proc.cpu_time_us


def test_post_create_hostname_and_mounts_roundtrip(world):
    _rt, container = make_container(world)
    container.set_hostname("renamed-mid-epoch")
    container.add_mount("/scratch", "datafs")
    version = container.namespaces.version
    _image, restored = full_roundtrip(world, container)
    ns = restored.namespaces
    assert ns.uts_hostname == "renamed-mid-epoch"
    assert any(m.mountpoint == "/scratch" for m in ns.mounts)
    assert ns.version == version
    assert restored.cgroup.version == container.cgroup.version


def test_plain_file_fd_roundtrip(world):
    _rt, container = make_container(world)
    fs = container.mounted_filesystems()[0]
    fs.create("/data/journal")
    fs.write("/data/journal", 0, b"entry-0")
    proc = container.processes[0]
    entry = proc.install_fd(
        "file", OpenFile(inode=fs.lookup("/data/journal"), offset=4096), flags=2
    )
    _image, restored = full_roundtrip(world, container)
    rproc = restored.processes[0]
    rentry = rproc.fds[entry.fd]
    assert rentry.kind == "file"
    assert rentry.obj.path == "/data/journal"
    assert rentry.obj.offset == 4096
    assert rentry.flags == 2
    assert rproc._next_fd >= entry.fd + 1


def test_unsafe_drop_dump_knob_removes_the_key(world, monkeypatch):
    _rt, container = make_container(world)
    container.cgroup.charge_cpu(1_000)
    apply_mutant(monkeypatch, "drop-dump")
    image, restored = full_roundtrip(world, container)
    assert "cpuacct_usage_us" not in image.cgroup
    assert restored.cgroup.cpuacct_usage_us == 0  # the divergence the oracle sees


def test_roundtrip_deep_compare_clean(world):
    """The inventory-guided comparator agrees the clone is exact — the same
    check the oracle runs on live workloads, here on the synthetic app."""
    _rt, container = make_container(world)
    proc = container.processes[0]
    proc.mm.write(container.heap_vma.start + 1, b"tok")
    proc.tasks[0].advance(42)
    container.set_hostname("deep-compare")
    fs = container.mounted_filesystems()[0]
    fs.create("/data/blob")
    fs.write("/data/blob", 0, b"bytes")
    _image, restored = full_roundtrip(world, container)
    inventory = build_inventory(SourceTree.load())
    diffs, fields_compared = compare_containers(container, restored, inventory)
    assert diffs == [], [str(d) for d in diffs]
    assert fields_compared > 50
