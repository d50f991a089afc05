"""Row-induced partitions of the column set and structural diagnostics.

Each row of a corpus groups the columns by the value they carry at that
position; the sizes of these groupings reveal block structure even when the
per-column permutations are unknown.

Row sizes and modes come from one kernel, ``row_stats``: it sorts each
row once and reads off the partition size and the lower-middle entry (the
row's mode wherever one value fills more than half the row).  It is the
only row sort of the package; ``two_valued_rows``, where the two-block
solver starts, needs no sort, only each row's min and max.  Rows of 1-byte
words are sorted as 16-bit integers: numpy 2.4 has no fast sort for 8-bit
types (on x86-64, 64 rows of 4000 sort in about 5 ms as uint8 against
0.15 ms as int16 and 0.4 ms as int64), and the widening is exact and costs
one small copy per block.
"""

from __future__ import annotations

import csv

import numpy as np

from .model import ShuffledCorpus
from .perms import BLOCK_ENTRIES


def row_stats(values: np.ndarray) -> tuple:
    """Per row of a 2-D integer array, from one sort: the partition size
    (number of distinct values) and the lower-middle sorted entry, in the
    array's dtype.  Rows are sorted about ``BLOCK_ENTRIES`` entries at a
    time, so the sorted copy stays in cache and off the peak memory of a
    large corpus.  The copy is row-major whatever the input's layout: on a
    record-major corpus it is the one transposing copy of the sort.  A
    row's distinct values are counted as the set bytes of its mask of
    changes between sorted neighbours, eight bytes per ``bitwise_count``,
    which is faster than ``count_nonzero`` along the rows."""
    n_cols = values.shape[1]
    step = max(1, BLOCK_ENTRIES // (n_cols + 1))
    wide = np.int16 if values.dtype.itemsize == 1 else values.dtype
    sizes = np.empty(len(values), dtype=np.intp)
    middle = np.zeros(len(values), dtype=values.dtype)
    # the mask of changes, its rows zero-padded to whole 8-byte words
    changes = np.zeros((min(step, len(values)), -(-max(n_cols - 1, 0) // 8) * 8), dtype=bool)
    for start in range(0, len(values), step):
        ordered = values[start:start + step].astype(wide, order="C")
        ordered.sort(axis=1)
        mask = changes[:len(ordered)]
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=mask[:, :n_cols - 1])
        sizes[start:start + step] = 1 + np.bitwise_count(mask.view(np.uint64)).sum(axis=1)
        if n_cols:  # rows without entries keep middle 0
            middle[start:start + step] = ordered[:, (n_cols - 1) // 2]
    return sizes, middle


def partition_profile(corpus: ShuffledCorpus) -> np.ndarray:
    """Partition size of every row, an (L,) intp array; no part structure kept."""
    return row_stats(corpus.values)[0]


def two_valued_rows(corpus: ShuffledCorpus) -> np.ndarray:
    """Indices, ascending, of the rows whose partition has exactly two parts:
    the rows whose entries all equal the row's min or its max, with min below
    max.  No sort: two reductions, then two comparisons per entry, taken
    about ``BLOCK_ENTRIES`` entries at a time in whole columns, so each
    block of a record-major corpus is one run of memory."""
    values = corpus.values
    if not values.size:
        return np.empty(0, dtype=np.intp)
    low = values.min(axis=1, keepdims=True)
    high = values.max(axis=1, keepdims=True)
    two = (low < high)[:, 0]
    step = max(1, BLOCK_ENTRIES // len(values))
    for start in range(0, values.shape[1], step):
        block = values[:, start:start + step]
        ends = block == low
        ends |= block == high
        two &= ends.all(axis=1)
    return np.flatnonzero(two)


def profile_to_csv(sizes: np.ndarray, path) -> None:
    """Write (row index, partition size) pairs of ``partition_profile``'s
    sizes; row indices are 1-based to match printed output."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "partition_size"])
        for i, s in enumerate(sizes.tolist(), start=1):
            writer.writerow([i, s])
