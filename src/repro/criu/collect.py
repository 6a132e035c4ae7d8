"""State collectors: how checkpointing reads container state out of the kernel.

Each collector is a generator coroutine charging the simulated cost of the
kernel interface it models, and returning plain-data descriptions that go
into a :class:`~repro.criu.images.CheckpointImage`.

The costs are where stock CRIU and NiLiCon diverge (see
:class:`~repro.criu.config.CriuConfig`): smaps vs netlink for VMAs, pipe vs
shared memory for page contents, full re-collection vs ftrace-invalidated
caching for the infrequently-modified container state, NAS flush vs
``fgetfc`` for the filesystem cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.criu.config import CriuConfig
from repro.kernel.kernel import Kernel
from repro.kernel.parasite import ParasiteChannel
from repro.kernel.task import Process
from repro.kernel.tcp import TcpStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container

__all__ = ["StateCollector"]


class StateCollector:
    """Collectors bound to one kernel and one configuration."""

    def __init__(self, kernel: Kernel, config: CriuConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.costs = kernel.costs
        self.engine = kernel.engine

    def _charge(self, us: int):
        return self.engine.timeout(us)

    # ------------------------------------------------------------------ #
    # Memory                                                               #
    # ------------------------------------------------------------------ #
    def collect_memory(
        self, process: Process, parasite: ParasiteChannel, incremental: bool
    ) -> Generator[Any, Any, tuple[list[dict], dict[int, bytes]]]:
        """VMAs + page contents for one process.

        Incremental mode reads the soft-dirty set from pagemap and restarts
        tracking; full mode captures every resident page and starts
        tracking for subsequent incrementals.
        """
        procfs = self.kernel.procfs
        if self.config.vma_source == "smaps":
            vmas = yield from procfs.smaps_vmas(process)
        else:
            vmas = yield from procfs.netlink_vmas(process)

        if incremental and process.mm.tracking_enabled:
            # Already in address order: pagemap is scanned low to high.
            indices = yield from procfs.pagemap_dirty(process)
        else:
            indices = sorted(process.mm.pages)
        pages = yield from parasite.read_pages(indices)
        # Restart tracking for the next epoch.
        yield from procfs.clear_refs(process)
        return vmas, pages

    # ------------------------------------------------------------------ #
    # Per-process kernel state                                             #
    # ------------------------------------------------------------------ #
    def collect_fd_table(self, process: Process) -> Generator[Any, Any, list[dict]]:
        entries = process.fd_entries()
        yield self._charge(len(entries) * self.costs.collect_fd_entry)
        out = []
        for entry in entries:
            desc: dict[str, Any] = {"fd": entry.fd, "kind": entry.kind, "flags": entry.flags}
            if entry.kind == "file" and hasattr(entry.obj, "path"):
                desc["path"] = entry.obj.path
                desc["offset"] = getattr(entry.obj, "offset", 0)
            out.append(desc)
        return out

    # ------------------------------------------------------------------ #
    # Sockets (repair mode)                                                #
    # ------------------------------------------------------------------ #
    def collect_sockets(self, stack: TcpStack) -> Generator[Any, Any, list[dict]]:
        """Dump every listener and established connection.

        Cost is the paper's per-socket repair-mode storm (~94 us/socket
        plus ~1 ms fixed).
        """
        count = stack.socket_count
        yield self._charge(self.costs.socket_collection(count))
        out: list[dict] = []
        # Stack-wide state first: the ephemeral-port allocator position must
        # survive failover or new outbound connections collide with repaired
        # ones (same 4-tuple, different universe).
        out.append({"kind": "stack", "next_ephemeral": stack._next_ephemeral})
        for port, _listener in sorted(stack.listeners.items()):
            out.append({"kind": "listener", "port": port})
        for key in sorted(stack.connections):
            sock = stack.connections[key]
            sock.enter_repair()
            state = sock.get_repair_state()
            sock.leave_repair()
            out.append({"kind": "connection", "repair_state": state})
        return out

    # ------------------------------------------------------------------ #
    # Infrequently-modified container state (SSIII list, SSV-B)            #
    # ------------------------------------------------------------------ #
    def collect_infrequent(
        self, container: "Container"
    ) -> Generator[Any, Any, dict[str, Any]]:
        """Namespaces, cgroups, mounts, device files, memory-mapped files.

        This is the full (slow) collection: ~100 ms of namespace reads plus
        cgroups/mounts/devices plus one stat() per mapped file — about
        160 ms for streamcluster (§V-B).
        """
        costs = self.costs
        yield self._charge(costs.collect_namespaces)
        yield self._charge(costs.collect_cgroups)
        yield self._charge(costs.collect_mounts)
        yield self._charge(costs.collect_device_files)
        stats: list[dict] = []
        for process in container.processes:
            file_stats = yield from self.kernel.procfs.stat_mapped_files(process)
            stats.extend(file_stats)
        return {
            "namespaces": container.namespaces.describe(),
            "cgroup": container.cgroup.describe(),
            "mapped_file_stats": stats,
        }

    # ------------------------------------------------------------------ #
    # Filesystem cache (SSIII)                                             #
    # ------------------------------------------------------------------ #
    def collect_fs_cache(
        self, container: "Container"
    ) -> Generator[Any, Any, tuple[list[dict], list[tuple[str, int, bytes]]]]:
        """Checkpoint the fs cache via fgetfc, or flush to NAS (stock mode).

        In NAS mode nothing enters the image (storage is shared); the cost
        is the prohibitive flush the paper describes.
        """
        inode_entries: list[dict] = []
        page_entries: list[tuple[str, int, bytes]] = []
        for fs in container.mounted_filesystems():
            if self.config.fs_cache_mode == "fgetfc":
                inodes, pages = yield from self.kernel.fgetfc(fs)
                inode_entries.extend(inodes)
                page_entries.extend(pages)
            else:
                dirty = fs.dirty_page_count()
                flushed = fs.flush_all_to_device()
                assert flushed == dirty
                yield self._charge(
                    self.costs.nas_flush_fixed + flushed * self.costs.nas_flush_per_page
                )
        return inode_entries, page_entries
