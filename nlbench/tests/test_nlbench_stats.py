"""The percentile rule: report a percentile only with ten samples beyond it."""

import pytest

from nlbench.stats import (
    highest_percentile, min_samples_for, samples_beyond, sim_digest,
)


def test_samples_beyond_matches_the_program_percentile():
    from repro.metrics.stats import percentile

    values = list(range(1, 101))
    for p in (50, 90, 99):
        assert sum(v > percentile(values, p) for v in values) == samples_beyond(100, p)


def test_samples_beyond_uses_nearest_rank():
    # Nearest rank of p90 over 100 samples is 90: ten samples lie above it.
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(10_000, 99.9) == 10
    assert samples_beyond(0, 50) == 0


def test_min_samples_for_each_reported_percentile():
    assert min_samples_for(50) == 20
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10_000, 99.9),
])
def test_highest_percentile_with_ten_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_sim_digest_is_order_sensitive_and_stable():
    assert sim_digest([1, (2, 3)]) == sim_digest([1, (2, 3)])
    assert sim_digest([1, (2, 3)]) != sim_digest([(2, 3), 1])
    assert len(sim_digest([])) == 8
