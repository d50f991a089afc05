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


@dataclass(frozen=True)
class PartitionProfile:
    sizes: tuple  # partition size per row, length L

    @property
    def max_size(self) -> int:
        return max(self.sizes)


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


def profile_to_csv(profile: PartitionProfile, path) -> None:
    """Write (row index, partition size) pairs; row indices are 1-based to
    match printed output."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "partition_size"])
        for i, s in enumerate(profile.sizes, start=1):
            writer.writerow([i, s])
