"""Backup-side stores of committed checkpoint pages.

Stock CRIU keeps incremental checkpoints as a linked list of directories;
processing each received page requires walking the list to find and drop a
previous copy — cost grows with the number of checkpoints taken.  NiLiCon
replaces this with a four-level radix tree "mimicking the implementation of
the hardware page tables", making per-page processing O(1) and independent
of history (paper §V-A, the first CRIU optimization).

Both stores are modelled by the simulated cost they report per stored
page, which the backup agent charges as CPU time, not by their host
layout: on the host both are dicts, O(1) per page.  They are
*content-equivalent* (property-tested against a plain dict oracle).
"""

from __future__ import annotations

from typing import Dict, Protocol

from repro.kernel.costmodel import CostModel

__all__ = ["LinkedListPageStore", "PageStore", "RadixTreePageStore"]


class PageStore(Protocol):
    """What the backup agent requires of a page store.

    A checkpoint is *open* between :meth:`begin_checkpoint` and either
    :meth:`commit_checkpoint` or :meth:`abort_checkpoint`.  Abort undoes
    every page stored since the matching begin, restoring the store to the
    last committed checkpoint — the rollback a failover needs when it
    interrupts an in-flight commit.
    """

    #: Lifetime pages stored (perf-profiler harvest).
    pages_stored: int

    @property
    def checkpoint_open(self) -> bool: ...

    def begin_checkpoint(self) -> None: ...

    def commit_checkpoint(self) -> None: ...

    def abort_checkpoint(self) -> None: ...

    def store_page(self, pid: int, page_idx: int, content: bytes) -> int: ...

    def pages_of(self, pid: int) -> Dict[int, bytes]: ...

    def lookup(self, pid: int, page_idx: int) -> bytes | None: ...


class RadixTreePageStore:
    """NiLiCon's store: O(1) per page, independent of checkpoint history.

    The paper's four-level radix tree is modelled by its cost
    (``pagestore_radix_per_page`` per stored page), not by its host
    layout: each pid's committed pages live in one ``{page_idx: content}``
    dict, and :meth:`pages_of` returns them in address order, the order a
    radix-tree walk yields.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        #: pid -> {page_idx: content} of every stored page.
        self._pages: dict[int, dict[int, bytes]] = {}
        self.checkpoints_taken = 0
        #: Lifetime pages stored (perf-profiler harvest; always on).
        self.pages_stored = 0
        #: Undo log of the open checkpoint: (the pid's page dict, page_idx,
        #: prior content or None) per slot written since begin_checkpoint.
        self._undo: list[tuple[dict[int, bytes], int, bytes | None]] = []
        self._open = False

    @property
    def checkpoint_open(self) -> bool:
        return self._open

    def begin_checkpoint(self) -> None:
        self.checkpoints_taken += 1
        self._open = True
        self._undo.clear()

    def commit_checkpoint(self) -> None:
        self._open = False
        self._undo.clear()

    def abort_checkpoint(self) -> None:
        """Roll the store back to the last committed checkpoint."""
        if not self._open:
            return
        for pages, page_idx, prior in reversed(self._undo):
            if prior is None:
                del pages[page_idx]
            else:
                pages[page_idx] = prior
        self._undo.clear()
        self._open = False
        self.checkpoints_taken -= 1

    def store_page(self, pid: int, page_idx: int, content: bytes) -> int:  # hot: per-page -- every committed page funnels through here
        """Store one page; returns the processing cost in microseconds."""
        self.pages_stored += 1
        pages = self._pages.get(pid)
        if pages is None:
            pages = self._pages[pid] = {}
        if self._open:
            self._undo.append((pages, page_idx, pages.get(page_idx)))
        pages[page_idx] = content
        return self.costs.pagestore_radix_per_page

    def lookup(self, pid: int, page_idx: int) -> bytes | None:
        pages = self._pages.get(pid)
        return None if pages is None else pages.get(page_idx)

    def pages_of(self, pid: int) -> Dict[int, bytes]:
        pages = self._pages.get(pid)
        if pages is None:
            return {}
        return dict(sorted(pages.items()))


class LinkedListPageStore:
    """Stock CRIU's store: a linked list of checkpoint directories.

    Every received page triggers a scan through previous directories to
    find and remove an older copy, so per-page cost grows with checkpoint
    count — the pathology NiLiCon's radix tree removes.  The scan is
    charged (one ``pagestore_list_per_page_per_ckpt`` per directory), but
    on the host a key -> directory index finds the older copy directly.
    """

    def __init__(self, costs: CostModel) -> None:
        self.costs = costs
        #: Oldest-first list of {(pid, page_idx): content} directories.
        #: Each key lives in at most one directory.
        self._dirs: list[dict[tuple[int, int], bytes]] = []
        #: (pid, page_idx) -> index of the directory holding it.
        self._where: dict[tuple[int, int], int] = {}
        self.checkpoints_taken = 0
        #: Lifetime pages stored (perf-profiler harvest; always on).
        self.pages_stored = 0
        #: Undo log of the open checkpoint: stale copies popped from earlier
        #: directories, as (directory index, key, content).
        self._undo: list[tuple[int, tuple[int, int], bytes]] = []
        self._open = False

    @property
    def checkpoint_open(self) -> bool:
        return self._open

    def begin_checkpoint(self) -> None:
        self.checkpoints_taken += 1
        self._dirs.append({})
        self._open = True
        self._undo.clear()

    def commit_checkpoint(self) -> None:
        self._open = False
        self._undo.clear()

    def abort_checkpoint(self) -> None:
        """Drop the open directory and restore the stale copies it evicted."""
        if not self._open:
            return
        where = self._where
        for key in self._dirs.pop():
            del where[key]
        for dir_idx, key, content in reversed(self._undo):
            self._dirs[dir_idx][key] = content
            where[key] = dir_idx
        self._undo.clear()
        self._open = False
        self.checkpoints_taken -= 1

    def store_page(self, pid: int, page_idx: int, content: bytes) -> int:  # hot: per-page -- stock-CRIU path; cost grows with checkpoint count
        self.pages_stored += 1
        dirs = self._dirs
        if not dirs:
            self.begin_checkpoint()
        key = (pid, page_idx)
        newest = len(dirs) - 1
        # Drop the stale copy an older directory holds, if any.
        older = self._where.get(key)
        if older is not None and older != newest:
            stale = dirs[older].pop(key)
            if self._open:
                self._undo.append((older, key, stale))
        dirs[newest][key] = content
        self._where[key] = newest
        return len(dirs) * self.costs.pagestore_list_per_page_per_ckpt

    def lookup(self, pid: int, page_idx: int) -> bytes | None:
        key = (pid, page_idx)
        dir_idx = self._where.get(key)
        return None if dir_idx is None else self._dirs[dir_idx][key]

    def pages_of(self, pid: int) -> Dict[int, bytes]:
        merged: dict[int, bytes] = {}
        for directory in self._dirs:
            for (owner, page_idx), content in directory.items():
                if owner == pid:
                    merged[page_idx] = content
        return merged
