"""Restricted-prefix M-block unshuffling: iterated weighted cyclic alignment
with truncation.

Each round cyclically aligns every column of the not-yet-truncated row
suffix to a reference column, scoring shifts with geometrically decaying
row weights so that matching the first remaining row outweighs all deeper
rows combined.  A block boundary is then read off the row partition sizes,
the finished block is truncated, and the process repeats.

With each weight larger than the sum of all later ones (base 2 or more),
the best score is the lexicographic maximum of the per-row match vector, so
no score is ever summed.  The shift search refines candidates instead, for
all columns at once: every column starts with all L shifts, each row in turn
keeps the candidates that match there (if any do), and a column is settled
once one candidate remains; on a tie the smallest shift wins.  After the
first row a column typically has about 1 + L/q candidates left, so a round
costs about O(N*L) rather than O(N*L^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ShuffledCorpus
from .partitions import distinct_counts
from .perms import BlockStructure


class AlignmentFailedError(RuntimeError):
    """Round-one alignment produced no conserved leading row."""


class InconsistentResultError(RuntimeError):
    """Recovered block lengths do not tile the record."""


@dataclass(frozen=True)
class AlignConfig:
    structured_part_max: Optional[int] = None  # boundary threshold; default ceil(N/4)
    reference_column: int = 0

    def __post_init__(self):
        if self.reference_column < 0:
            raise ValueError("reference column must be nonnegative")
        if self.structured_part_max is not None and self.structured_part_max < 1:
            raise ValueError("structured part max must be at least 1")

    def part_threshold(self, n_cols: int) -> int:
        if self.structured_part_max is not None:
            return self.structured_part_max
        return math.ceil(n_cols / 4)


@dataclass(frozen=True)
class RoundTrace:
    start_row: int
    shifts: tuple
    boundary: int


@dataclass(frozen=True)
class MUnshuffleResult:
    block_count: int
    lengths: tuple               # recovered block lengths, reference-column order
    column_perms: tuple          # per-column Perm on [0, L)
    aligned: ShuffledCorpus
    trace: tuple                 # RoundTrace per round
    success: bool
    failure_reason: Optional[str] = None

    def trace_as_dict(self) -> list:
        return [{"start_row": t.start_row, "shifts": list(t.shifts),
                 "boundary": t.boundary} for t in self.trace]


def lex_best_shifts(ref: np.ndarray, cols: np.ndarray, rows=None) -> np.ndarray:
    """Per column of ``cols``, the cyclic shift ``s`` whose match vector
    ``[cols[(l+s) mod L, k] == ref[l] for l in rows]`` is lexicographically
    largest (earlier rows weigh more); the smallest such shift on ties.
    ``rows`` defaults to every row, in order.

    Candidate refinement: every column starts with all L shifts; at each row
    the candidates that match there are kept, if any do, and a column leaves
    the active set once a single candidate remains."""
    size, n_cols = cols.shape
    shifts = np.zeros(n_cols, dtype=np.intp)
    active = np.arange(n_cols)
    cand = np.ones((size, n_cols), dtype=bool)
    for l in (range(size) if rows is None else rows):
        done = cand.sum(axis=0) == 1
        if done.any():
            shifts[active[done]] = cand[:, done].argmax(axis=0)
            active, cand, cols = active[~done], cand[:, ~done], cols[:, ~done]
            if not len(active):
                break
        eq = cols == ref[l]
        hits = np.concatenate((eq[l:], eq[:l])) & cand  # hits[s] = eq[(l+s) mod L]
        matched = hits.any(axis=0)
        cand[:, matched] = hits[:, matched]
    shifts[active] = cand.argmax(axis=0)
    return shifts


def weighted_shift_align(corpus: ShuffledCorpus, ref_col: int) -> np.ndarray:
    """Per-column circular shift maximizing the geometrically weighted match
    count against the reference column (the lexicographic maximum of the
    per-row match vector); the reference's own shift is 0."""
    if corpus.n_rows < 1 or corpus.n_cols < 1:
        raise ValueError("empty corpus")
    if ref_col >= corpus.n_cols:
        raise ValueError(f"reference column {ref_col} outside [0, {corpus.n_cols})")
    return lex_best_shifts(corpus.values[:, ref_col], corpus.values)


def detect_block_boundary(corpus: ShuffledCorpus, config: AlignConfig) -> int:
    """Rows of an aligned corpus classified by partition size: conserved
    (size 1), noise (size above the threshold), structured (in between).
    Returns the number of rows before the first structured row, i.e. the
    length of the leading fully-aligned block; the full row count if no
    structured row exists."""
    if corpus.n_rows < 1:
        raise ValueError("empty corpus")
    sizes = distinct_counts(corpus.values)
    structured = (sizes >= 2) & (sizes <= config.part_threshold(corpus.n_cols))
    return int(np.argmax(structured)) if structured.any() else corpus.n_rows


def _modal_rows(values: np.ndarray):
    """Per-row most frequent value and its multiplicity; the smallest such
    value on ties.  One row-wise sort, then run lengths."""
    n_cols = values.shape[1]
    ordered = np.sort(values, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    flat_starts = np.flatnonzero(starts)
    runs = np.diff(flat_starts, append=ordered.size)  # a run never spans rows
    run_rows = flat_starts // n_cols
    row_first_run = np.flatnonzero(np.diff(run_rows, prepend=-1))
    counts = np.maximum.reduceat(runs, row_first_run)
    best = np.flatnonzero(runs == counts[run_rows])
    best = best[np.diff(run_rows[best], prepend=-1) != 0]  # first (smallest) per row
    return ordered.ravel()[flat_starts[best]], counts


def _repair_outliers(aligned: np.ndarray, passes: int = 2) -> np.ndarray:
    """Fix columns that locked onto a spurious shift.  A misaligned column
    turns otherwise conserved rows into near-unanimous ones, which the
    boundary rule would misread as structure.  Rows where all but a handful
    of columns agree are taken as a trusted partial template; any column
    disagreeing with most of them is realigned against those rows alone (at
    its true shift it matches every one of them).

    Rotates the columns of ``aligned`` in place and returns the extra shift
    of each column."""
    size, n_cols = aligned.shape
    tol = max(1, n_cols // 16)
    extra = np.zeros(n_cols, dtype=np.intp)
    for _ in range(passes):
        modes, counts = _modal_rows(aligned)
        trusted = np.flatnonzero(counts >= n_cols - tol)
        if len(trusted) == 0:
            break
        agreement = (aligned[trusted] == modes[trusted, None]).mean(axis=0)
        outliers = np.flatnonzero(agreement < 0.7)
        if len(outliers) == 0:
            break
        shifts = np.zeros(n_cols, dtype=np.intp)
        shifts[outliers] = lex_best_shifts(modes, aligned[:, outliers], trusted)
        _roll_columns(aligned, shifts)
        extra = (extra + shifts) % size
    return extra


def _roll_columns(values: np.ndarray, shifts: np.ndarray) -> None:
    """Rotate column k of ``values`` up by ``shifts[k]`` rows, in place: one
    ``np.roll`` per distinct nonzero shift."""
    for s in np.unique(shifts):
        if s:
            cols = np.flatnonzero(shifts == s)
            values[:, cols] = np.roll(values[:, cols], -s, axis=0)


def unshuffle_m(corpus: ShuffledCorpus,
                config: AlignConfig = AlignConfig()) -> MUnshuffleResult:
    """Iterate align + truncate until the rows are exhausted.  Each round
    rotates the row suffix of every column; the rotations accumulate in one
    (L, N) index array whose column k is column k's permutation of the full
    record."""
    total = corpus.n_rows
    n_cols = corpus.n_cols
    working = corpus.values.copy()
    rows = np.arange(total, dtype=np.min_scalar_type(total))  # small: it lives as long as working
    index = np.repeat(rows[:, None], n_cols, axis=1)
    lengths = []
    trace = []
    start = 0
    success = True
    reason = None
    while start < total:
        rem = total - start
        sub = ShuffledCorpus(values=working[start:], q=corpus.q)
        shifts = weighted_shift_align(sub, config.reference_column)
        _roll_columns(working[start:], shifts)
        shifts = (shifts + _repair_outliers(working[start:])) % rem
        _roll_columns(index[start:], shifts)
        boundary = detect_block_boundary(
            ShuffledCorpus(values=working[start:], q=corpus.q), config)
        shifts = tuple(shifts.tolist())
        trace.append(RoundTrace(start_row=start, shifts=shifts, boundary=boundary))
        if boundary == 0:
            if start == 0:
                raise AlignmentFailedError(
                    "first row still structured after round-one alignment")
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
    column_perms = tuple(tuple(index[:, k].tolist()) for k in range(n_cols))
    return MUnshuffleResult(block_count=len(lengths), lengths=tuple(lengths),
                            column_perms=column_perms,
                            aligned=ShuffledCorpus(values=working, q=corpus.q),
                            trace=tuple(trace), success=success,
                            failure_reason=reason)


def recover_block_structure(result: MUnshuffleResult) -> BlockStructure:
    """Block lengths of a successful run as a BlockStructure; the lengths
    must tile the record."""
    total = result.aligned.n_rows
    if sum(result.lengths) != total:
        raise InconsistentResultError(
            f"recovered lengths sum to {sum(result.lengths)}, record is {total}")
    return BlockStructure(result.lengths)
