"""Two-block unshuffling: estimate which columns were swapped, the block
boundary, and the noise loci, then align the corpus.

The estimated swapped set is canonicalized so that column 0 is never in it
(which side of the bipartition was "shuffled" is not identifiable from the
corpus alone; swapping sides replaces the shift by its complement).

Each side sees the template only at its conserved rows: side 0 through
column 0, side 1 through its first column, each a (values, defined) pair of
arrays.  The shift between them is read off an exact histogram of position
offsets over all pairs of equal defined values, and the swapped columns are
then rotated back by that shift.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import ShuffledCorpus
from .partitions import two_valued_rows


class NotIdentifiableError(RuntimeError):
    """The corpus carries no usable two-valued rows."""


@dataclass(frozen=True)
class TwoUnshuffleResult:
    swapped_cols: tuple          # estimated swapped column set (sorted)
    first_block_len: int         # estimated length of the leading block
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


def _swapped_mask(n_cols: int, swapped_cols) -> np.ndarray:
    swapped = np.zeros(n_cols, dtype=bool)
    swapped[list(swapped_cols)] = True
    if not swapped.any() or swapped.all():
        raise ValueError("swapped column set must be nonempty and proper")
    return swapped


def estimate_conserved_rows(corpus: ShuffledCorpus, swapped_cols):
    """Rows constant over the unswapped columns, and rows constant over the
    swapped columns.  Each side is compared with its first column on a bool
    mask, so no side is copied."""
    values = corpus.values
    swapped = _swapped_mask(corpus.n_cols, swapped_cols)
    conserved = []
    for side in (~swapped, swapped):
        same = values == values[:, np.argmax(side), None]
        same |= ~side
        conserved.append(tuple(np.flatnonzero(same.all(axis=1)).tolist()))
    return tuple(conserved)


def align_cyclic(v0: np.ndarray, d0: np.ndarray,
                 v1: np.ndarray, d1: np.ndarray) -> tuple:
    """Best cyclic shift between two partially defined templates: the s
    maximizing |{l : d0[i] and d1[l] and v0[i] == v1[l], i = (l+s) mod L}|,
    undefined entries never matching; ties break toward the smallest s.

    Every pair (i, j) of defined positions holding equal values adds 1 to
    bin (i - j) mod L of an offset histogram.  Positions of side 0 are taken
    in blocks of about 2**18 comparisons, so memory stays bounded."""
    total = len(v0)
    if len(v1) != total:
        raise ValueError("templates differ in length")
    i, j = np.flatnonzero(d0), np.flatnonzero(d1)
    hist = np.zeros(total, dtype=np.intp)
    step = max(1, 2 ** 18 // (len(j) + 1))
    for start in range(0, len(i), step):
        block = i[start:start + step]
        a, b = np.nonzero(v0[block, None] == v1[j])
        hist += np.bincount((block[a] - j[b]) % total, minlength=total)
    shift = int(np.argmax(hist))
    return shift, int(hist[shift])


def unshuffle2(corpus: ShuffledCorpus) -> TwoUnshuffleResult:
    """Full pipeline: swapped set, conserved rows, cyclic alignment of the
    side templates, and corpus realignment.  The aligned corpus keeps the
    memory layout of the input."""
    values = corpus.values
    swapped_cols = estimate_swapped_columns(corpus)
    conserved = estimate_conserved_rows(corpus, swapped_cols)
    defined = np.zeros((2, corpus.n_rows), dtype=bool)
    for side, rows in enumerate(conserved):
        defined[side, list(rows)] = True
    shift, score = align_cyclic(values[:, 0], defined[0],
                                values[:, swapped_cols[0]], defined[1])
    # Record-major view: rotating a swapped column right by the shift is two
    # slice copies along its record.
    records = values.T
    swapped = _swapped_mask(corpus.n_cols, swapped_cols)[:, None]
    out = np.empty_like(records)
    np.copyto(out, records, where=~swapped)
    np.copyto(out[:, shift:], records[:, :corpus.n_rows - shift], where=swapped)
    np.copyto(out[:, :shift], records[:, corpus.n_rows - shift:], where=swapped)
    return TwoUnshuffleResult(
        swapped_cols=tuple(sorted(swapped_cols)),
        first_block_len=shift,
        conserved_unswapped=conserved[0],
        conserved_swapped=conserved[1],
        aligned=ShuffledCorpus(values=out.T, q=corpus.q),
        score=score,
    )
