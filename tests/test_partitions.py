"""Row-induced partitions: the row-statistics kernel, the CSV profile, and
the partition oracle the tests share."""

import csv

import numpy as np
from conftest import assert_row_stats_match_unique_loop, row_partition
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unshuffle.model import ShuffledCorpus
from unshuffle.partitions import (
    partition_profile,
    profile_to_csv,
    row_stats,
    two_valued_rows,
)


def corpus(rows, q=10):
    return ShuffledCorpus(values=np.array(rows, dtype=np.int64), q=q)


def test_row_partition_by_hand():
    part = row_partition(np.array([1, 2, 1, 2, 3]))
    assert part == ((0, 2), (1, 3), (4,))


def test_row_partition_ordering_is_stable():
    # parts ordered by smallest member, not by value
    assert row_partition(np.array([9, 0, 9, 0])) == ((0, 2), (1, 3))


def test_partition_profile():
    c = corpus([[1, 1, 1],
                [1, 2, 1],
                [1, 2, 3]])
    profile = partition_profile(c)
    assert profile.sizes == (1, 2, 3)
    assert profile.max_size == 3
    # rows without entries: size 1, as one empty part
    assert partition_profile(corpus([[], []])).sizes == (1, 1)


@settings(deadline=None)
@given(st.sampled_from([np.uint8, np.int64]), st.data())
def test_distinct_counts_matches_unique(dtype, data):
    # a row's size from ``row_stats`` is its count of distinct values.  A
    # record-major (F-order) copy, the layout of corpora generated in memory,
    # gives the same sizes and middles as the row-major one a load gives.
    values = data.draw(arrays(dtype, st.tuples(st.integers(1, 8), st.integers(1, 12)),
                              elements=st.integers(0, 5)))
    sizes, middle = row_stats(values)
    assert sizes.tolist() == [len(np.unique(row)) for row in values]
    f_sizes, f_middle = row_stats(np.asfortranarray(values))
    assert np.array_equal(f_sizes, sizes) and np.array_equal(f_middle, middle)


def test_row_stats_wide_rows():
    # 2**18 // 70001 = 3 rows per sorted block: blocks of 3, 3 and 1 rows.
    values = np.random.default_rng(3).integers(0, 50000, size=(7, 70000))
    values[2] = 4
    values[5, ::2] = 9
    values[6, :40000] = 7
    assert_row_stats_match_unique_loop(values)


def test_two_valued_rows():
    c = corpus([[1, 1, 1],
                [1, 2, 1],
                [1, 2, 3]])
    assert two_valued_rows(c).tolist() == [1]


def test_profile_to_csv(tmp_path):
    c = corpus([[1, 1], [1, 2], [3, 4]])
    path = tmp_path / "profile.csv"
    profile_to_csv(partition_profile(c), path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["row", "partition_size"]
    assert rows[1:] == [["1", "1"], ["2", "2"], ["3", "2"]]
