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
    sizes = partition_profile(c)
    assert sizes.dtype == np.intp and sizes.tolist() == [1, 2, 3]
    # rows without entries: size 1, as one empty part
    assert partition_profile(corpus([[], []])).tolist() == [1, 1]


@settings(deadline=None)
@given(st.sampled_from([np.uint8, np.int64]), st.data())
def test_distinct_counts_matches_unique(dtype, data):
    # a row's size from ``row_stats`` is its count of distinct values.  A
    # record-major (F-order) copy, the layout of generated and loaded
    # corpora, gives the same sizes and middles as a row-major one.
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


@settings(deadline=None)
@given(st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]), st.booleans(),
       st.integers(0, 8), st.integers(0, 12), st.data())
def test_two_valued_rows_match_row_stats(dtype, record_major, n_rows, n_cols, data):
    # [DERIVED] the two-valued rows are the rows of partition size 2, in
    # either layout; each row draws from 1 to 4 values of the dtype's range,
    # so rows of one, two and more values all occur.
    top = min(int(np.iinfo(dtype).max), 2 ** 40)
    rows = [data.draw(st.lists(st.sampled_from(palette), min_size=n_cols, max_size=n_cols))
            for palette in [data.draw(st.lists(st.integers(0, top), min_size=1,
                                               max_size=4, unique=True))
                            for _ in range(n_rows)]]
    values = np.array(rows, dtype=dtype).reshape(n_rows, n_cols)
    if record_major:
        values = np.asfortranarray(values)
    found = two_valued_rows(ShuffledCorpus(values=values, q=top + 1))
    assert found.dtype == np.intp
    assert np.array_equal(found, np.flatnonzero(row_stats(values)[0] == 2))


def test_two_valued_rows_in_blocks():
    # 2**18 // 7 = 37449 columns per block, so each row spans two blocks.
    values = np.random.default_rng(4).integers(0, 2, size=(7, 70000)).astype(np.uint8)
    values[1] = 5                  # one value
    values[3, 69999] = 2           # a third value in the last block
    values[4, 0] = 2               # a third value in the first block
    values[6, :37449] = 1          # two values, one in each block
    expected = np.flatnonzero(row_stats(values)[0] == 2)
    assert expected.tolist() == [0, 2, 5, 6]
    for layout in (values, np.asfortranarray(values)):
        assert np.array_equal(two_valued_rows(ShuffledCorpus(values=layout, q=6)), expected)


def test_profile_to_csv(tmp_path):
    c = corpus([[1, 1], [1, 2], [3, 4]])
    path = tmp_path / "profile.csv"
    profile_to_csv(partition_profile(c), path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["row", "partition_size"]
    assert rows[1:] == [["1", "1"], ["2", "2"], ["3", "2"]]
