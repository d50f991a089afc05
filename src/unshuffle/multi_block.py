"""Restricted-prefix M-block unshuffling: iterated weighted cyclic alignment
with truncation.

Each round cyclically aligns every column of the not-yet-truncated row
suffix to a reference column, scoring shifts with geometrically decaying
row weights so that matching the first remaining row outweighs all deeper
rows combined.  A block boundary is then read off the row partition sizes,
the finished block is truncated, and the process repeats.

Scores are compared exactly: for weight base >= 2 the weighted sum order
coincides with lexicographic order on the per-row match vector (each weight
strictly exceeds the sum of all later ones), so matches are compared as
packed bit strings; smaller bases fall back to exact rational sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import ShuffledCorpus, apply_unshuffle
from .partitions import distinct_counts
from .perms import BlockStructure, Perm, compose, identity


class AlignmentFailedError(RuntimeError):
    """Round-one alignment produced no conserved leading row."""


class InconsistentResultError(RuntimeError):
    """Recovered block lengths do not tile the record."""


@dataclass(frozen=True)
class AlignConfig:
    weight_base: float = 2          # geometric row-weight base; > 1
    max_rounds: Optional[int] = None
    structured_part_max: Optional[int] = None  # boundary threshold; default ceil(N/4)
    reference_column: int = 0

    def __post_init__(self):
        if self.weight_base <= 1:
            raise ValueError(f"weight base must exceed 1, got {self.weight_base}")
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


def _match_matrix(ref: np.ndarray, col: np.ndarray) -> np.ndarray:
    """matches[l, s] == (col[(l+s) mod L] == ref[l])."""
    size = len(ref)
    idx = (np.arange(size)[:, None] + np.arange(size)[None, :]) % size
    return col[idx] == ref[:, None]


def _best_shift(matches: np.ndarray, base) -> int:
    """Shift with the maximal weighted match score, smallest shift on ties."""
    if base >= 2:
        packed = np.packbits(matches, axis=0)  # row 0 is the most significant
        keys = [packed[:, s].tobytes() for s in range(matches.shape[1])]
        return int(max(range(len(keys)), key=lambda s: (keys[s], -s)))
    weights = [Fraction(base) ** -(l + 1) for l in range(matches.shape[0])]
    best_s, best = 0, None
    for s in range(matches.shape[1]):
        score = sum(w for w, m in zip(weights, matches[:, s]) if m)
        if best is None or score > best:
            best_s, best = s, score
    return best_s


def weighted_shift_align(corpus: ShuffledCorpus, ref_col: int,
                         config: AlignConfig) -> tuple:
    """Per-column circular shift maximizing the geometrically weighted match
    count against the reference column; the reference's own shift is 0."""
    if corpus.n_rows < 1 or corpus.n_cols < 1:
        raise ValueError("empty corpus")
    if ref_col >= corpus.n_cols:
        raise ValueError(f"reference column {ref_col} outside [0, {corpus.n_cols})")
    ref = corpus.values[:, ref_col]
    shifts = []
    for k in range(corpus.n_cols):
        if k == ref_col:
            shifts.append(0)
            continue
        shifts.append(_best_shift(_match_matrix(ref, corpus.values[:, k]),
                                  config.weight_base))
    return tuple(shifts)


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
    """Per-row most frequent value and its multiplicity."""
    modes = np.empty(values.shape[0], dtype=values.dtype)
    counts = np.empty(values.shape[0], dtype=np.intp)
    for row in range(values.shape[0]):
        uniq, cnt = np.unique(values[row], return_counts=True)
        best = int(np.argmax(cnt))
        modes[row], counts[row] = uniq[best], cnt[best]
    return modes, counts


def _repair_outliers(values: np.ndarray, shifts, base, passes: int = 2) -> tuple:
    """Fix columns that locked onto a spurious shift.  A misaligned column
    turns otherwise conserved rows into near-unanimous ones, which the
    boundary rule would misread as structure.  Rows where all but a handful
    of columns agree are taken as a trusted partial template; any column
    disagreeing with most of them is realigned against those rows alone (at
    its true shift it matches every one of them)."""
    size, n_cols = values.shape
    tol = max(1, n_cols // 16)
    shifts = list(shifts)
    aligned = np.empty_like(values)
    for k, s in enumerate(shifts):
        aligned[:, k] = np.roll(values[:, k], -s) if s else values[:, k]
    for _ in range(passes):
        modes, counts = _modal_rows(aligned)
        trusted = np.where(counts >= n_cols - tol)[0]
        if len(trusted) == 0:
            break
        agreement = (aligned[trusted] == modes[trusted, None]).mean(axis=0)
        outliers = np.where(agreement < 0.7)[0]
        if len(outliers) == 0:
            break
        for k in outliers:
            matches = _match_matrix(modes, aligned[:, k])[trusted]
            extra = _best_shift(matches, base)
            if extra:
                aligned[:, k] = np.roll(aligned[:, k], -extra)
                shifts[k] = (shifts[k] + extra) % size
    return tuple(shifts)


def _suffix_shift_perm(total: int, start: int, shift: int) -> Perm:
    """Identity on [0, start); cyclic shift by ``shift`` on [start, total)."""
    rem = total - start
    return tuple(range(start)) + tuple(start + (j + shift) % rem for j in range(rem))


def unshuffle_m(corpus: ShuffledCorpus,
                config: AlignConfig = AlignConfig()) -> MUnshuffleResult:
    """Iterate align + truncate until the rows are exhausted, composing the
    per-round suffix shifts into per-column permutations on the full record."""
    total = corpus.n_rows
    n_cols = corpus.n_cols
    max_rounds = config.max_rounds if config.max_rounds is not None else total
    perms = [identity(total) for _ in range(n_cols)]
    working = corpus.values.copy()
    lengths = []
    trace = []
    start = 0
    success = True
    reason = None
    rounds = 0
    while start < total and rounds < max_rounds:
        rounds += 1
        sub = ShuffledCorpus(values=working[start:], q=corpus.q)
        shifts = weighted_shift_align(sub, config.reference_column, config)
        shifts = _repair_outliers(working[start:], shifts, config.weight_base)
        for k, s in enumerate(shifts):
            if s:
                working[start:, k] = np.roll(working[start:, k], -s)
            perms[k] = compose(perms[k], _suffix_shift_perm(total, start, s))
        boundary = detect_block_boundary(
            ShuffledCorpus(values=working[start:], q=corpus.q), config)
        trace.append(RoundTrace(start_row=start, shifts=shifts, boundary=boundary))
        if boundary == 0:
            if rounds == 1:
                raise AlignmentFailedError(
                    "first row still structured after round-one alignment")
            success = False
            reason = f"no conserved leading row at row {start}; {total - start} rows unresolved"
            break
        rem = total - start
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
    if start < total and success:
        success = False
        reason = f"round cap reached with {total - start} rows unresolved"
    aligned = apply_unshuffle(corpus, perms)
    return MUnshuffleResult(block_count=len(lengths), lengths=tuple(lengths),
                            column_perms=tuple(perms), aligned=aligned,
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
