"""The percentile rule and the simulation digest."""

from __future__ import annotations

import math
import zlib
from typing import Iterable, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank *p*-th percentile of *n*
    (the rank rule of ``repro.metrics.stats.percentile``)."""
    if n <= 0:
        return 0
    rank = max(1, math.ceil(p / 100 * n - 1e-9))
    return n - min(rank, n)


def highest_percentile(n: int, candidates: Iterable[float] = (50, 90, 99, 99.9)) -> float | None:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond it, or ``None`` when even the lowest has fewer."""
    best = None
    for p in sorted(candidates):
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def min_samples_for(p: float) -> int:
    """Smallest sample count for which *p* has ``MIN_BEYOND`` beyond it."""
    n = 1
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def sim_digest(parts: Iterable[object]) -> str:
    """CRC32 over the canonical ``repr`` of each part, as 8 hex digits."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(repr(part).encode(), crc)
    return f"{crc:08x}"
