"""Percentile selection: nearest rank, and the samples beyond a tail."""

import pytest

from stats import beyond, percentile, summary


def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # order of input does not matter


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_beyond_counts_samples_above_the_rank():
    assert beyond(200, 95) == 10
    assert beyond(199, 95) == 9
    assert beyond(100, 90) == 10
    assert beyond(40, 75) == 10


def test_summary_states_the_count_behind_each_figure():
    report = summary([float(v) for v in range(1, 301)], 95.0)
    assert report["n"] == 300
    assert report["tail_p"] == 95.0
    assert report["tail"] == 285.0
    assert report["beyond_tail"] == 15
    few = summary([1.0] * 5, 95.0)
    assert few["tail"] == 1.0 and few["beyond_tail"] == 0
    assert summary([], 95.0)["p50"] is None
