"""Table I row 1 (the basic configuration) against run length.

The linked-list page store's per-page cost grows with checkpoint count,
but it is charged only inside the backup's commit, which the primary of
a compute workload never waits on.  So row 1's overhead is the stop time
(freeze sleep + collection + transfer) over the epoch period, and does
not grow with the number of epochs a run takes.
"""

import pytest

from repro.experiments.common import overhead_from_time, run_compute_benchmark
from repro.replication.config import TABLE1_LEVELS, NiliconConfig


def basic_overhead_pct(total_units):
    """Row 1 of ``run_table1(total_units=...)``, without the other rows."""
    workload_kwargs = {"total_units": total_units}
    stock = run_compute_benchmark(
        "streamcluster", "stock", seed=1, workload_kwargs=workload_kwargs
    )
    basic = run_compute_benchmark(
        "streamcluster",
        "nilicon",
        seed=1,
        config=NiliconConfig.table1_level(0).with_(detector_enabled=False),
        workload_kwargs=workload_kwargs,
        timeout_us=600_000_000,
    )
    return 100 * overhead_from_time(stock, basic)


def test_basic_level_overhead_is_independent_of_run_length():
    assert TABLE1_LEVELS[0] == "basic"
    short, long = basic_overhead_pct(4_000), basic_overhead_pct(16_000)
    assert long == pytest.approx(short, rel=0.01)
