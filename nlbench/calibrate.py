"""Host-speed calibration: a fixed pure-Python loop timed between slices.

The benchmark's host shares its cores, and its speed drifts by up to 2x
over minutes (measured: 10 back-to-back compute-bigheap runs read 1.65 to
2.55 sim s per host s).  Timing this loop next to the simulator tracks
that drift: scaled by ``REFERENCE_S / median(samples)``, the same ten runs
spread 5.5% instead of 31% (IQR over median).

The loop does the simulator's kind of work -- random access to a ~60K-entry
dict of bytes (page tables), heap pushes and pops of tuples (the event
queue), small-object allocation and generator resumption -- and uses no
program code, so a change to the simulator cannot change it.  A smaller
dict that fits the CPU cache tracked the drift worse, and the dict holds
~7 MB, so the loop runs in a helper process: its data stays out of the
benchmark process's ``peak_rss_mb``.  The helper times the loop itself,
so the pipe round trip is not part of a sample.

Run as a script, this module is that helper: it runs the loop once per
line read from stdin and prints the seconds it took.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time

__all__ = ["REFERENCE_S", "Calibration"]

#: Median time of one :meth:`Calibration.sample` on the reference host (a
#: 2-vCPU VM); host seconds are reported in units of this host's speed.
REFERENCE_S = 0.008


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _resumer():
    total = 0
    while True:
        total += yield total


class _Loop:
    PAGES = 60_000
    STEPS = 3_000

    def __init__(self) -> None:
        self.pages = {i: b"p%d" % i for i in range(self.PAGES)}
        self.order = [(i * 7919) % self.PAGES for i in range(self.PAGES // 10)]

    def run(self) -> float:
        t0 = time.perf_counter()
        pages = self.pages
        for key in self.order:
            pages[key] = pages[key]
        heap: list[tuple] = []
        counts: dict[int, int] = {}
        resumer = _resumer()
        next(resumer)
        for i in range(self.STEPS):
            item = _Item(i, (i * 7919) % 1000)
            heapq.heappush(heap, (item.value, i, item))
            counts[i % 509] = counts.get(i % 509, 0) + item.key
            resumer.send(i)
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - t0


class Calibration:
    """Collects calibration samples from a helper process; :meth:`factor`
    turns host seconds into reference-host seconds.  Use it as a context
    manager (or call :meth:`close`) so the helper is stopped and reaped."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Calibration:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        helper = self._helper
        if helper.poll() is None:
            helper.stdin.close()
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
        helper.stdout.close()

    def sample(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        elapsed = float(self._helper.stdout.readline())
        self.samples.append(elapsed)
        return elapsed

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Reference-host seconds per host second of this run."""
        return REFERENCE_S / self.median_s()


if __name__ == "__main__":
    loop = _Loop()
    for _ in sys.stdin:
        print(loop.run(), flush=True)
