"""Row-induced partitions of the column set and structural diagnostics.

Each row of a corpus groups the columns by the value they carry at that
position; the sizes of these groupings reveal block structure even when the
per-column permutations are unknown.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import ShuffledCorpus
from .perms import BlockStructure


@dataclass(frozen=True)
class RowPartition:
    """Columns grouped by equal value at one row.

    Parts are ordered by their smallest contained column index, so equal
    partitions compare equal across runs.
    """

    parts: tuple    # tuple of tuples of column indices, each sorted
    values: tuple   # value labelling each part

    @property
    def size(self) -> int:
        return len(self.parts)

    def as_sets(self) -> frozenset:
        """Value-free view: the partition as a frozenset of frozensets."""
        return frozenset(frozenset(p) for p in self.parts)


@dataclass(frozen=True)
class PartitionProfile:
    sizes: tuple  # partition size per row, length L

    @property
    def max_size(self) -> int:
        return max(self.sizes)


def row_partition(corpus: ShuffledCorpus, row: int) -> RowPartition:
    """Group columns by their value at ``row`` (0-based)."""
    if not 0 <= row < corpus.n_rows:
        raise IndexError(f"row {row} outside [0, {corpus.n_rows})")
    groups = {}
    for col, value in enumerate(corpus.values[row].tolist()):
        groups.setdefault(value, []).append(col)
    items = sorted(groups.items(), key=lambda kv: kv[1][0])
    return RowPartition(parts=tuple(tuple(cols) for _, cols in items),
                        values=tuple(v for v, _ in items))


def distinct_counts(values: np.ndarray) -> np.ndarray:
    """Number of distinct values in each row of a 2-D array (the row's
    partition size).  Rows are sorted about 2**18 entries at a time: the
    sorted copy stays in cache and off the peak memory of a large corpus."""
    step = max(1, 2 ** 18 // (values.shape[1] + 1))
    counts = np.empty(len(values), dtype=np.intp)
    for start in range(0, len(values), step):
        ordered = np.sort(values[start:start + step], axis=1)
        counts[start:start + step] = 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)
    return counts


def partition_profile(corpus: ShuffledCorpus) -> PartitionProfile:
    """Partition size of every row; vectorized (no part structure kept)."""
    return PartitionProfile(sizes=tuple(distinct_counts(corpus.values).tolist()))


def two_valued_rows(corpus: ShuffledCorpus) -> np.ndarray:
    """Indices, ascending, of the rows whose partition has exactly two parts."""
    return np.flatnonzero(distinct_counts(corpus.values) == 2)


def distinct_subset_sums(blocks: BlockStructure):
    """Whether all 2**M subset sums of the block lengths are distinct,
    together with the sorted sums."""
    sums = blocks.subset_sums()
    return len(sums) == 2 ** blocks.block_count, sums


def profile_to_csv(profile: PartitionProfile, path) -> None:
    """Write (row index, partition size) pairs; row indices are 1-based to
    match printed output."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "partition_size"])
        for i, s in enumerate(profile.sizes, start=1):
            writer.writerow([i, s])
