"""Restricted-prefix M-block unshuffling: iterated weighted cyclic alignment
with truncation.

Each round cyclically aligns every column of the not-yet-truncated row
suffix to a reference column, scoring shifts with geometrically decaying
row weights so that matching the first remaining row outweighs all deeper
rows combined.  A block boundary is then read off the row partition sizes,
the finished block is truncated, and the process repeats.  Sizes and row
modes come from ``partitions.row_stats``, one row sort per repair pass.

With each weight larger than the sum of all later ones (base 2 or more),
the best score is the lexicographic maximum of the per-row match vector, so
no score is ever summed.  The shift search lists candidate (column, shift)
pairs, one block of columns at a time: the first row lists the shifts that
match (all L where none does) at O(N*L) a round, and each later row keeps a
column's matching pairs, if any, at O(pairs).  About 1 + L/q per column
survive the first row, so a round costs about O(N*L), not O(N*L^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ShuffledCorpus
from .partitions import row_stats
from .perms import BLOCK_ENTRIES, rotate_columns
from .probs import occupancy

NOISE_Z_MIN = -6.0  # a row of several values scoring below this against noise fails a run
REPAIR_PASSES = 2  # outlier-repair rounds per alignment round


@dataclass(frozen=True)
class RoundTrace:
    start_row: int
    shifts: tuple
    boundary: int


@dataclass(frozen=True)
class MUnshuffleResult:
    lengths: tuple               # recovered block lengths, reference-column order
    column_perms: np.ndarray     # (N, L); row n is column n's permutation of [0, L)
    aligned: ShuffledCorpus
    trace: tuple                 # RoundTrace per round
    success: bool
    failure_reason: Optional[str] = None

    @property
    def block_count(self) -> int:
        return len(self.lengths)

    def trace_as_dict(self) -> list:
        return [{"start_row": t.start_row, "shifts": list(t.shifts),
                 "boundary": t.boundary} for t in self.trace]


def lex_best_shifts(ref: np.ndarray, cols: np.ndarray, rows=None) -> np.ndarray:
    """Per column of ``cols``, the cyclic shift ``s`` whose match vector
    ``[cols[(l+s) mod L, k] == ref[l] for l in rows]`` is lexicographically
    largest (earlier rows weigh more); the smallest such shift on ties.
    ``rows`` defaults to every row, in order.  The candidate pairs are
    kept for one block of about ``BLOCK_ENTRIES`` entries of ``cols`` at a
    time, sorted by column and then by shift."""
    size, n_cols = cols.shape
    rows = range(size) if rows is None else rows
    shifts = np.zeros(n_cols, dtype=np.intp)
    if not len(rows):
        return shifts
    step = max(1, BLOCK_ENTRIES // size)
    for start in range(0, n_cols, step):
        part = cols[:, start:start + step]
        width = part.shape[1]
        hits = np.empty((width, size), dtype=bool)  # hits[k, s] = (part[(l+s) mod L, k] == ref[l])
        l = rows[0]
        np.equal(part[l:].T, ref[l], out=hits[:, :size - l])
        np.equal(part[:l].T, ref[l], out=hits[:, size - l:])
        hits |= ~hits.any(axis=1, keepdims=True)
        col, shift = np.divmod(np.flatnonzero(hits), size)
        for l in rows[1:]:
            if len(col) == width:
                break
            keep = part[(shift + l) % size, col] == ref[l]
            keep |= np.bincount(col[keep], minlength=width)[col] == 0
            col, shift = col[keep], shift[keep]
        shifts[start:start + width] = shift[np.searchsorted(col, np.arange(width))]
    return shifts


def weighted_shift_align(corpus: ShuffledCorpus) -> np.ndarray:
    """Per-column circular shift maximizing the geometrically weighted match
    count against the reference column 0 (the lexicographic maximum of the
    per-row match vector); the reference's own shift is 0."""
    if corpus.n_rows < 1 or corpus.n_cols < 1:
        raise ValueError("empty corpus")
    return lex_best_shifts(corpus.values[:, 0], corpus.values)


def detect_block_boundary(sizes: np.ndarray, threshold: int) -> int:
    """Rows of an aligned corpus classified by their partition sizes
    (distinct values per row): conserved (size 1), noise (size above the
    threshold), structured (in between).  Returns the number of rows before
    the first structured row, i.e. the length of the leading fully-aligned
    block; the full row count if no structured row exists."""
    if len(sizes) < 1:
        raise ValueError("empty corpus")
    structured = (sizes >= 2) & (sizes <= threshold)
    return int(np.argmax(structured)) if structured.any() else len(sizes)


def _repair_outliers(aligned: np.ndarray):
    """Fix columns that locked onto a spurious shift.  A misaligned column
    turns otherwise conserved rows into near-unanimous ones, which the
    boundary rule would misread as structure.  Rows where all but a handful
    of columns agree are taken as a trusted partial template; any column
    disagreeing with most of them is realigned against those rows alone (at
    its true shift it matches every one of them).

    Rotates the columns of ``aligned`` in place and returns the extra shift
    of each column and the partition size of each row after the repair.
    A pass that moves no column hands back the sizes from its own sort,
    whose middle entries are the trusted rows' majority values."""
    size, n_cols = aligned.shape
    tol = max(1, n_cols // 16)  # under half a row of 3 or more: a trusted row has a majority
    extra = np.zeros(n_cols, dtype=np.intp)
    for _ in range(REPAIR_PASSES):
        sizes, middle = row_stats(aligned)
        match = aligned == middle[:, None]
        trusted = np.flatnonzero(np.count_nonzero(match, axis=1) >= n_cols - tol)
        if len(trusted) == 0:
            return extra, sizes
        agreement = match[trusted].mean(axis=0)
        outliers = np.flatnonzero(agreement < 0.7)
        if len(outliers) == 0:
            return extra, sizes
        shifts = np.zeros(n_cols, dtype=np.intp)
        shifts[outliers] = lex_best_shifts(middle, aligned[:, outliers], trusted)
        rotate_columns(aligned, shifts)
        extra = (extra + shifts) % size
    return extra, row_stats(aligned)[0]


def _alphabet(corpus: ShuffledCorpus) -> tuple:
    """The number of distinct symbols, and the largest + 1 (both 0 if empty).
    Symbols below 2**16 are bincounted about ``BLOCK_ENTRIES`` entries at a
    time, so no intp copy of the whole corpus is made, each block in its
    memory order; wider ones go through np.unique."""
    values = corpus.values
    span = int(values.max()) + 1 if values.size else 0
    if span > 2 ** 16:
        return len(np.unique(values)), span
    hist = np.zeros(span, dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // (values.shape[1] + 1))
    for start in range(0, len(values), step):
        hist += np.bincount(values[start:start + step].ravel("K"), minlength=span)
    return int(np.count_nonzero(hist)), span


def unshuffle_m(corpus: ShuffledCorpus) -> MUnshuffleResult:
    """Iterate align + truncate until the rows are exhausted.  Each round
    rotates the row suffix of every column with ``rotate_columns``; the
    rotations accumulate in one (L, N) index array whose column k is column
    k's permutation of the full record; ``column_perms`` is its transpose."""
    total = corpus.n_rows
    n_cols = corpus.n_cols
    # Threshold alphabet: the smallest Z/qZ holding the symbols (span <= q).
    # Guard alphabet: the symbols present, so a sparse palette is judged by what it shows.
    present, span = _alphabet(corpus)
    noise_mean = occupancy(max(2, span), n_cols)[0]
    threshold = min(math.ceil(n_cols / 4), max(2, math.floor(noise_mean / 2)))
    working = corpus.values.copy()
    rows = np.arange(total, dtype=np.min_scalar_type(total))  # small: it lives as long as working
    index = np.repeat(rows[:, None], n_cols, axis=1)
    sizes = np.empty(total, dtype=np.intp)  # a row's size is final once its block is cut
    lengths = []
    trace = []
    start = 0
    success = True
    reason = None
    while start < total:
        rem = total - start
        shifts = weighted_shift_align(ShuffledCorpus(values=working[start:], q=corpus.q))
        rotate_columns(working[start:], shifts)
        extra, sizes[start:] = _repair_outliers(working[start:])
        shifts = (shifts + extra) % rem
        rotate_columns(index[start:], shifts)
        boundary = detect_block_boundary(sizes[start:], threshold)
        shifts = tuple(shifts.tolist())
        trace.append(RoundTrace(start_row=start, shifts=shifts, boundary=boundary))
        if boundary == 0:
            success = False
            reason = f"no conserved leading row at row {start}; {total - start} rows unresolved"
            break
        if boundary == rem and any(shifts):
            # All columns became identical: the remaining blocks occur in one
            # common cyclic order, so no row is structured.  The boundaries
            # are still visible in this round's shifts: a column whose suffix
            # was rotated by s had a block starting s rows before its end.
            cuts = sorted({rem - s for s in shifts if s})
            prev = 0
            for cut in cuts + [rem]:
                lengths.append(cut - prev)
                prev = cut
            start = total
            continue
        lengths.append(boundary)
        start += boundary
    mean, sd = occupancy(max(2, present), n_cols)
    mixed = np.flatnonzero((sizes > 1) & (sizes - mean < NOISE_Z_MIN * sd))
    if success and len(mixed):
        success, reason = False, f"row {mixed[0]} mixes conserved and noisy columns"
    return MUnshuffleResult(lengths=tuple(lengths), column_perms=index.T,
                            aligned=ShuffledCorpus(values=working, q=corpus.q),
                            trace=tuple(trace), success=success,
                            failure_reason=reason)
