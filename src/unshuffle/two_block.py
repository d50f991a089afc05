"""Two-block unshuffling: estimate which columns were swapped, the block
boundary, and the noise loci, then align the corpus.

The estimated swapped set is canonicalized so that column 0 is never in it
(which side of the bipartition was "shuffled" is not identifiable from the
corpus alone; swapping sides replaces the shift by its complement).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import ShuffledCorpus
from .partitions import two_valued_rows
from .perms import Perm, cyclic_shift_perm


class NotIdentifiableError(RuntimeError):
    """The corpus carries no usable two-valued rows."""


@dataclass(frozen=True)
class PartialTuple:
    """A length-L tuple with possibly-undefined entries.

    An undefined entry matches nothing, including another undefined entry.
    """

    values: np.ndarray   # int values; meaningful only where defined
    defined: np.ndarray  # bool mask

    def __len__(self) -> int:
        return len(self.values)

    def matches(self, other: "PartialTuple") -> np.ndarray:
        """Elementwise match mask; undefined never matches."""
        return self.defined & other.defined & (self.values == other.values)


@dataclass(frozen=True)
class TwoUnshuffleResult:
    swapped_cols: tuple          # estimated swapped column set (sorted)
    first_block_len: int         # estimated length of the leading block
    pi_hat: Perm                 # the estimated cyclic block shift
    conserved_unswapped: tuple   # rows constant over the unswapped columns
    conserved_swapped: tuple     # rows constant over the swapped columns
    aligned: ShuffledCorpus
    score: int                   # alignment match count at the chosen shift


def estimate_swapped_columns(corpus: ShuffledCorpus) -> tuple:
    """The most frequently occurring two-part row partition, reported as the
    side not containing column 0.  Ties break toward the partition first
    seen at the earliest row."""
    if corpus.n_cols < 2:
        raise NotIdentifiableError("need at least two columns")
    values = corpus.values[two_valued_rows(corpus)]
    if len(values) == 0:
        raise NotIdentifiableError("no two-valued rows; nothing to unshuffle")
    sides = values != values[:, :1]
    _, first, counts = np.unique(np.packbits(sides, axis=1), axis=0,
                                 return_index=True, return_counts=True)
    winner = first[counts == counts.max()].min()
    return tuple(np.flatnonzero(sides[winner]).tolist())


def estimate_conserved_rows(corpus: ShuffledCorpus, swapped_cols):
    """Rows constant over the unswapped columns, and rows constant over the
    swapped columns."""
    swapped = np.zeros(corpus.n_cols, dtype=bool)
    swapped[list(swapped_cols)] = True
    if not swapped.any() or swapped.all():
        raise ValueError("swapped column set must be nonempty and proper")
    side0 = corpus.values[:, ~swapped]
    side1 = corpus.values[:, swapped]
    const0 = (side0 == side0[:, :1]).all(axis=1)
    const1 = (side1 == side1[:, :1]).all(axis=1)
    return (tuple(np.flatnonzero(const0).tolist()),
            tuple(np.flatnonzero(const1).tolist()))


def partial_templates(corpus: ShuffledCorpus, swapped_cols, conserved) -> tuple:
    """The template as seen by each side: defined where the side is constant."""
    rows0, rows1 = conserved
    swapped = np.zeros(corpus.n_cols, dtype=bool)
    swapped[list(swapped_cols)] = True
    unswapped_col = int(np.flatnonzero(~swapped)[0])
    swapped_col = int(np.flatnonzero(swapped)[0])

    def build(rows, col):
        values = np.zeros(corpus.n_rows, dtype=np.int64)
        defined = np.zeros(corpus.n_rows, dtype=bool)
        idx = list(rows)
        defined[idx] = True
        values[idx] = corpus.values[idx, col]
        return PartialTuple(values=values, defined=defined)

    return build(rows0, unswapped_col), build(rows1, swapped_col)


def align_cyclic(a0: PartialTuple, a1: PartialTuple) -> tuple:
    """Best cyclic shift: the s maximizing |{l : a0[(l+s) mod L] == a1[l]}|,
    undefined entries never matching; ties break toward the smallest s."""
    if len(a0) != len(a1):
        raise ValueError("partial tuples differ in length")
    total = len(a0)
    best_s, best_score = 0, -1
    for s in range(total):
        v0 = np.roll(a0.values, -s)
        d0 = np.roll(a0.defined, -s)
        score = int(np.count_nonzero(d0 & a1.defined & (v0 == a1.values)))
        if score > best_score:
            best_s, best_score = s, score
    return best_s, best_score


def unshuffle2(corpus: ShuffledCorpus) -> TwoUnshuffleResult:
    """Full pipeline: swapped set, conserved rows, partial templates, cyclic
    alignment, and corpus realignment."""
    swapped_cols = estimate_swapped_columns(corpus)
    conserved = estimate_conserved_rows(corpus, swapped_cols)
    a0, a1 = partial_templates(corpus, swapped_cols, conserved)
    shift, score = align_cyclic(a0, a1)
    aligned = corpus.values.copy()
    for col in swapped_cols:
        aligned[:, col] = np.roll(aligned[:, col], shift)
    return TwoUnshuffleResult(
        swapped_cols=tuple(sorted(swapped_cols)),
        first_block_len=shift,
        pi_hat=cyclic_shift_perm(corpus.n_rows, shift),
        conserved_unswapped=conserved[0],
        conserved_swapped=conserved[1],
        aligned=ShuffledCorpus(values=aligned, q=corpus.q),
        score=score,
    )
