"""The bisect index behind ``AddressSpace.find_vma`` against a linear scan.

``find_vma`` bisects a sorted list of VMA starts that ``mmap``/``munmap``
keep in step with ``vmas``; the reference is the plain ``Vma.contains``
scan it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import ContainerRuntime
from repro.criu import CheckpointEngine, RestoreEngine
from repro.criu.imagefiles import read_image_files, write_image_files
from repro.criu.restore import FullState
from repro.kernel.costmodel import CostModel
from repro.kernel.errors import AddressError
from repro.kernel.mm import AddressSpace, Vma
from repro.net import World

from tests.criu.test_checkpoint_restore import make_container, run_gen


def linear_find(mm: AddressSpace, page_idx: int) -> Vma | None:
    found = [vma for vma in mm.vmas if vma.contains(page_idx)]
    assert len(found) <= 1
    return found[0] if found else None


def assert_index_matches_scan(mm: AddressSpace, pages) -> None:
    assert [v.start for v in mm.vmas] == sorted(v.start for v in mm.vmas)
    for page in pages:
        want = linear_find(mm, page)
        if want is None:
            with pytest.raises(AddressError):
                mm.find_vma(page)
            with pytest.raises(AddressError):
                mm.read(page)
        else:
            assert mm.find_vma(page) is want


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mmap"), st.integers(0, 60), st.integers(1, 12)),
        st.tuples(st.just("munmap"), st.integers(0, 20), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_property_find_vma_matches_linear_scan(ops):
    mm = AddressSpace(CostModel(), name="idx")
    for op, a, b in ops:
        if op == "mmap":
            vma = Vma(start=a, n_pages=b)
            overlaps = any(existing.overlaps(vma) for existing in mm.vmas)
            before = list(mm.vmas)
            if overlaps:
                with pytest.raises(AddressError):
                    mm.mmap(vma)
                assert mm.vmas == before
            else:
                mm.mmap(vma)
        elif mm.vmas:
            mm.munmap(mm.vmas[a % len(mm.vmas)])
        assert_index_matches_scan(mm, range(-2, 80))


def test_edges_and_gap_pages():
    mm = AddressSpace(CostModel(), name="edges")
    low = mm.mmap(Vma(start=10, n_pages=5))
    high = mm.mmap(Vma(start=20, n_pages=1))
    adjacent = mm.mmap(Vma(start=15, n_pages=2))
    assert mm.find_vma(10) is low and mm.find_vma(14) is low
    assert mm.find_vma(15) is adjacent and mm.find_vma(16) is adjacent
    assert mm.find_vma(20) is high
    for page in (9, 17, 19, 21, -1):
        with pytest.raises(AddressError):
            mm.find_vma(page)
    with pytest.raises(AddressError):
        mm.write(17, b"gap")
    assert_index_matches_scan(mm, range(0, 30))


def test_rejected_overlap_leaves_index_unchanged():
    mm = AddressSpace(CostModel(), name="overlap")
    heap = mm.mmap(Vma(start=100, n_pages=50))
    for start, n_pages in ((100, 1), (149, 5), (90, 11), (120, 3)):
        with pytest.raises(AddressError):
            mm.mmap(Vma(start=start, n_pages=n_pages))
    assert mm.vmas == [heap]
    assert_index_matches_scan(mm, range(80, 170))


def test_empty_vma_rejected():
    mm = AddressSpace(CostModel(), name="empty")
    mm.mmap(Vma(start=8, n_pages=2))
    with pytest.raises(AddressError):
        mm.mmap(Vma(start=8, n_pages=0))
    assert mm.find_vma(8).n_pages == 2


def test_index_survives_checkpoint_restore_through_image_files():
    world = World(seed=5)
    _rt, container = make_container(world, with_fs=False, n_threads=1)
    process = container.processes[0]
    libs = [v for v in process.mm.vmas if v.kind == "file"]
    process.mm.munmap(libs[3])  # leave a gap between two libraries
    extra = container.mmap_file(process, "/data/blob.dat", 7)
    process.mm.write(extra.start + 6, b"tail")
    process.mm.write(container.heap_vma.start, b"head")

    def dump():
        yield from container.freeze()
        return (yield from CheckpointEngine(world.primary.kernel).checkpoint(
            container, incremental=False
        ))

    image = run_gen(world, dump())
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
    state = read_image_files(write_image_files(state))
    backup_rt = ContainerRuntime(world.backup.kernel, world.bridge)
    restorer = RestoreEngine(world.backup.kernel)

    def load():
        return (yield from restorer.restore(backup_rt, state))

    restored_mm = run_gen(world, load()).processes[0].mm
    assert restored_mm.describe_vmas() == process.mm.describe_vmas()
    probes = {p for v in process.mm.vmas for p in (v.start - 1, v.start, v.end - 1, v.end)}
    probes |= set(range(libs[3].start, libs[3].end))
    assert_index_matches_scan(restored_mm, sorted(probes))
    assert restored_mm.read(extra.start + 6) == b"tail"
    with pytest.raises(AddressError):
        restored_mm.read(libs[3].start)
