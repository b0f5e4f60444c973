"""The benchmark's statistics rules."""

import pytest

from perfbench.stats import (
    paired_gain,
    percentile,
    self_ns,
    tail_supported,
    union_ns,
)


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0


def test_tail_needs_ten_samples_beyond_it():
    assert not tail_supported(199, 95)
    assert tail_supported(200, 95)
    assert tail_supported(100, 90)
    values = [float(v) for v in range(200)]
    assert percentile(values, 95) == pytest.approx(189.05)
    assert sum(v > percentile(values, 95) for v in values) == 10


def test_union_counts_overlaps_once():
    assert union_ns([]) == 0
    assert union_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_ns([(0, 10), (2, 3)]) == 10


def test_self_time_is_span_minus_union_of_children():
    assert self_ns((0, 100), []) == 100
    # overlapping children (two threads) are subtracted once
    assert self_ns((0, 100), [(10, 40), (30, 60)]) == 50
    # a child running past its parent is clipped to the parent
    assert self_ns((0, 100), [(90, 150), (-20, 10)]) == 80


def test_gain_needs_nine_tenths_of_pairs_and_gap_beyond_parent_iqr():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    faster = [p - 5.0 for p in parent]
    verdict = paired_gain(parent, faster, "lower")
    assert verdict["wins"] == 10 and verdict["gain"]
    assert not paired_gain(parent, faster, "higher")["gain"]

    # eight wins of ten is not enough, however large the gap
    mixed = faster[:8] + [p + 5.0 for p in parent[8:]]
    assert paired_gain(parent, mixed, "lower")["wins"] == 8
    assert not paired_gain(parent, mixed, "lower")["gain"]

    # ties count for neither side
    tied = faster[:9] + parent[9:]
    assert paired_gain(parent, tied, "lower")["wins"] == 9
    assert paired_gain(parent, tied, "lower")["gain"]

    # every pair won, but by less than the parent's own spread
    barely = [p - 0.1 for p in parent]
    verdict = paired_gain(parent, barely, "lower")
    assert verdict["wins"] == 10
    assert verdict["median_gap"] < verdict["parent_iqr"]
    assert not verdict["gain"]


def test_gain_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        paired_gain([1.0, 2.0], [1.0], "lower")
