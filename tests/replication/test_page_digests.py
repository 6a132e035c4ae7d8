"""Tests for the per-page digest cache (statecache.PageDigestCache).

Unit tests drive the cache with fake images/processes to pin the contract
— optimized mode hashes exactly the dirty (in-image) pages and counts the
clean remainder as cache hits; the bench's re-hash-everything reference
re-hashes the whole resident set — and the end-to-end tests assert the
backup re-hashes every page of every transfer of a live deployment with
zero mismatches, with the cache and under the ``unoptimized-digest``
mutant.
"""

import zlib
from types import SimpleNamespace

from repro.analysis.perfbench import RehashEverythingDigestCache
from repro.kernel.costmodel import PAGE_SIZE
from repro.replication.statecache import PageDigestCache, verify_page_digests
from repro.sim.units import ms
from tests.mutants import apply_mutant

from .conftest import make_deployment


def fake_image(page_map):
    """``{pid: {idx: content}}`` -> an object shaped like CheckpointImage."""
    return SimpleNamespace(processes=[
        SimpleNamespace(pid=pid, pages=dict(pages))
        for pid, pages in sorted(page_map.items())
    ])


def fake_processes(page_map):
    """``{pid: {idx: content}}`` -> objects shaped like kernel processes."""
    return [
        SimpleNamespace(pid=pid, mm=SimpleNamespace(pages=dict(pages)))
        for pid, pages in sorted(page_map.items())
    ]


def test_optimized_mode_hashes_only_image_pages():
    cache = PageDigestCache()
    resident = {7: {0: b"aaaa", 1: b"bbbb", 2: b"cccc", 3: b"dddd"}}
    dirty = {7: {1: b"bbbb", 3: b"dddd"}}
    digests = cache.digest_image(fake_image(dirty), fake_processes(resident))
    assert digests == {7: {1: zlib.crc32(b"bbbb"), 3: zlib.crc32(b"dddd")}}
    assert cache.pages_digested == 2
    # The two clean resident pages were served without hashing.
    assert cache.cache_hits == 2


def test_optimized_mode_leaves_clean_pages_unhashed():
    cache = PageDigestCache()
    resident = {7: {0: b"aaaa", 1: b"bbbb"}}
    # Epoch 1: both pages dirty.
    cache.digest_image(fake_image(resident), fake_processes(resident))
    # Epoch 2: only page 1 dirty — the transfer carries page 1's digest
    # freshly; clean page 0 is not shipped, so it is not hashed, and
    # counts as a cache hit.
    second = cache.digest_image(
        fake_image({7: {1: b"b2b2"}}), fake_processes(resident)
    )
    assert second == {7: {1: zlib.crc32(b"b2b2")}}
    assert cache.pages_digested == 3  # 2 + 1, page 0 never re-hashed
    assert cache.bytes_hashed == 3 * PAGE_SIZE
    assert cache.cache_hits == 1
    assert cache.generation == 2


def test_unoptimized_knob_rehashes_entire_resident_set():
    cache = RehashEverythingDigestCache()
    resident = {7: {0: b"aaaa", 1: b"bbbb", 2: b"cccc"}}
    dirty = {7: {1: b"bbbb"}}
    digests = cache.digest_image(fake_image(dirty), fake_processes(resident))
    # The transfer map still covers exactly the image pages...
    assert digests == {7: {1: zlib.crc32(b"bbbb")}}
    # ...but all three resident pages were hashed, and nothing was cached.
    assert cache.pages_digested == 3
    assert cache.cache_hits == 0


def test_digests_cover_multiple_processes():
    cache = PageDigestCache()
    dirty = {1: {0: b"p1"}, 2: {0: b"p2", 5: b"p2x"}}
    digests = cache.digest_image(fake_image(dirty), fake_processes(dirty))
    assert {pid: list(crcs) for pid, crcs in digests.items()} == {1: [0], 2: [0, 5]}


def test_verify_page_digests_intact_and_corrupted():
    cache = PageDigestCache()
    dirty = {7: {0: b"aaaa", 1: b"bbbb"}}
    image = fake_image(dirty)
    digests = cache.digest_image(image, fake_processes(dirty))
    checked = []
    assert verify_page_digests(image, digests, checked) == 0

    corrupted = fake_image({7: {0: b"aaaa", 1: b"XXXX"}})
    assert verify_page_digests(corrupted, digests, checked) == 1
    # Pages the primary sent no digest for are not checkable, and are
    # not counted as checked.
    assert verify_page_digests(fake_image({7: {9: b"zz"}, 8: {0: b"y"}}), digests, checked) == 0
    assert checked == [2, 2, 0]


def _populate(deployment, n_pages=100):
    proc = deployment.container.processes[0]
    heap = deployment.container.heap_vma
    for i in range(n_pages):
        proc.mm.write(heap.start + i, b"seed")


def test_backup_verifies_live_deployment_transfers(world):
    deployment = make_deployment(world)
    _populate(deployment)
    deployment.start()
    world.run(until=ms(500))
    deployment.stop()
    backup = deployment.backup_agent
    assert backup.digests_verified > 0
    assert backup.digest_mismatches == 0
    # Non-vacuous: every received page was re-hashed against a digest.
    assert backup.digest_pages_received > 0
    assert backup.digest_pages_checked == backup.digest_pages_received
    assert deployment.primary_agent.digest_cache.pages_digested > 0


def test_knob_deployment_still_verifies_clean(world, monkeypatch):
    apply_mutant(monkeypatch, "unoptimized-digest")
    deployment = make_deployment(world)
    _populate(deployment)
    deployment.start()
    world.run(until=ms(500))
    deployment.stop()
    backup = deployment.backup_agent
    assert backup.digests_verified > 0
    assert backup.digest_mismatches == 0
    assert backup.digest_pages_received > 0
    assert backup.digest_pages_checked == backup.digest_pages_received
    # The reference did strictly more hashing than the dirty sets required.
    cache = deployment.primary_agent.digest_cache
    assert isinstance(cache, RehashEverythingDigestCache)
    assert cache.cache_hits == 0
