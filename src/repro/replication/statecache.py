"""Caching of infrequently-modified in-kernel container state (paper §V-B).

"The most effective optimization in NiLiCon": control groups, namespaces,
mount points, device files and memory-mapped files rarely change, yet stock
collection costs ~160 ms per checkpoint.  NiLiCon caches their values and
invalidates the cache from a kernel module that ftrace-hooks the mutation
paths; the cached copy is included in each checkpoint instead.

The hook functions here mirror the paper's design: each receives the traced
call, checks whether the mutating thread belongs to the protected container
(our hooks receive the container directly as the first trace argument), and
signals the agent by invalidating.  As in the paper's prototype, only the
common mutation paths are hooked — which is "sufficient for all of our
benchmarks".

The same never-recompute-what-didn't-change principle drives
:class:`PageDigestCache`: the primary ships a CRC per page with every
state transfer so the backup can verify transfer integrity, and — like the
infrequent-state cache — only derives what the epoch actually touched.
Soft-dirty tracking already tells us which pages changed, and only those
are shipped, so only those are hashed (the re-hash-everything reference it
is benchmarked against lives in :mod:`repro.analysis.perfbench`).  Digesting
is *host-side analysis work* (like the auditor): it charges zero simulated
time and emits no trace events, so golden trace digests are unaffected.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Generator, Iterable

from repro.criu.collect import StateCollector
from repro.kernel.costmodel import PAGE_SIZE
from repro.kernel.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.runtime import Container
    from repro.criu.images import CheckpointImage

__all__ = [
    "InfrequentStateCache",
    "HOOKED_FUNCTIONS",
    "PageDigestCache",
    "verify_page_digests",
]

#: Kernel functions whose calls may change infrequently-modified state.
HOOKED_FUNCTIONS = (
    "do_mount",
    "sethostname",
    "cgroup_write",
    "do_mmap_file",
    "dev_open",
)


class InfrequentStateCache:
    """Per-container cache of the slow-to-collect state components."""

    def __init__(self, kernel: Kernel, collector: StateCollector, container: "Container") -> None:
        self.kernel = kernel
        self.collector = collector
        self.container = container
        self._cached: dict[str, Any] | None = None
        #: Metrics: how often the cache served / missed.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        for fn in HOOKED_FUNCTIONS:
            kernel.ftrace.register(fn, self._hook)
        self._detached = False

    def _hook(self, _fn_name: str, args: tuple) -> None:
        """The ftrace hook body: invalidate if the call touched our container."""
        if args and args[0] is self.container:
            self._cached = None
            self.invalidations += 1

    def provider(
        self, container: "Container"
    ) -> Generator[Any, Any, tuple[dict[str, Any], bool]]:
        """Infrequent-state provider for the checkpoint engine.

        Serves the cached copy when valid (cheap read), otherwise performs
        the full collection and refills the cache.
        """
        assert container is self.container
        if self._cached is not None:
            self.hits += 1
            yield self.kernel.charge(self.kernel.costs.collect_cached_state)
            return self._cached, True
        self.misses += 1
        components = yield from self.collector.collect_infrequent(container)
        self._cached = components
        return components, False

    @property
    def valid(self) -> bool:
        return self._cached is not None

    def detach(self) -> None:
        """Unregister hooks (deployment teardown)."""
        if self._detached:
            return
        for fn in HOOKED_FUNCTIONS:
            self.kernel.ftrace.unregister(fn, self._hook)
        self._detached = True


class PageDigestCache:
    """Per-page content CRCs of each epoch's checkpoint image.

    Every checkpoint transfer carries a ``page_digests`` map so the backup
    can verify each received page (:func:`verify_page_digests`).  The
    checkpoint image already contains exactly the dirty set, so only the
    image's pages are hashed; the clean resident pages are left unhashed,
    and ``cache_hits`` counts them.  No CRC is kept across epochs: a clean
    page is not shipped, so nothing needs its digest.

    Host-side only: no simulated time is charged and no trace events are
    emitted, so installing the digest path changes no golden digest.
    """

    def __init__(self) -> None:
        #: Checkpoint generations digested so far.
        self.generation = 0
        #: Perf-profiler harvest counters (always on).
        self.pages_digested = 0
        self.bytes_hashed = 0
        self.cache_hits = 0

    def digest_image(
        self, image: "CheckpointImage", processes: Iterable[Any] = ()
    ) -> dict[int, dict[int, int]]:  # hot: per-page -- runs over the dirty set every epoch
        """Digest one epoch's checkpoint; returns ``{pid: {idx: crc}}``
        with each process's pages in image (address) order.

        *processes* is the container's live process list, used only to
        count the clean pages that were NOT re-hashed.
        """
        self.generation += 1
        resident = 0
        for process in processes:
            resident += len(process.mm.pages)
        crc32 = zlib.crc32
        digests: dict[int, dict[int, int]] = {}
        in_image = 0
        for pimage in image.processes:
            pages = pimage.pages
            in_image += len(pages)
            digests[pimage.pid] = {idx: crc32(content) for idx, content in pages.items()}  # nlint: disable=PERF001,PERF002 -- one map per process image; dirty pages only, clean pages are never hashed
        self.pages_digested += in_image
        self.bytes_hashed += in_image * PAGE_SIZE
        # Clean resident pages left unhashed.
        self.cache_hits += max(0, resident - in_image)
        return digests


def verify_page_digests(
    image: "CheckpointImage",
    digests: dict[int, dict[int, int]],
    checked: list[int] | None = None,
) -> int:
    """Backup-side check: re-hash received pages against the primary's CRCs.

    Returns the number of mismatched pages (0 on an intact transfer).  A
    page the primary sent no digest for cannot be checked; the number of
    pages that were re-hashed is appended to *checked* when given, so a
    caller can tell an intact transfer from a vacuous check.  Host-side
    only, like the digesting itself.
    """
    crc32 = zlib.crc32
    mismatches = 0
    hashed = 0
    for pimage in image.processes:
        expected = digests.get(pimage.pid)
        if expected is None:
            continue
        actual = {idx: crc32(content) for idx, content in pimage.pages.items()}  # nlint: disable=PERF001,PERF002 -- one map per process image; the integrity check must hash exactly the received bytes
        if actual == expected:
            hashed += len(actual)
            continue
        for idx, crc in actual.items():
            want = expected.get(idx)
            if want is not None:
                hashed += 1
                if crc != want:
                    mismatches += 1
    if checked is not None:
        checked.append(hashed)
    return mismatches
