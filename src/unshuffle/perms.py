"""Permutation algebra: one-line permutations, operad composition, block
permutations, and coherent block permutations.

Permutations are stored 0-based as tuples ``p`` where ``p[a]`` is the image
of ``a``.  One-based one-line form appears only at I/O boundaries
(:func:`from_one_line` / :func:`to_one_line`).

The action convention is fixed once and used everywhere:

    ``apply_perm(p, v)[a] == v[p[a]]``

which matches the permutation matrix ``rho(p)[a, b] = (b == p[a])`` acting
on column vectors.  Consequently

    ``apply_perm(compose(p, q), v) == apply_perm(q, apply_perm(p, v))``

with ``compose(p, q)[a] == p[q[a]]``.  :func:`rotate_columns`, through which
both unshufflers realign, applies ``a -> (a + shifts[k]) mod L`` to column k.

The package builds coherent block permutations through one array table,
:func:`coherent_block_table`.  The operad-composed tuple forms remain as the
reference that the tests and acceptance criteria check it against (and as
``sync.objective_trace``'s independent form of the sync objective).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Perm = tuple  # tuple[int, ...]; a 0-based one-line permutation
SUBSET_SUM_MAX_BLOCKS = 25  # BlockStructure.subset_sums enumerates 2**M subsets
BLOCK_ENTRIES = 2 ** 18  # entries per block of every blocked kernel: a block stays in cache


class SizeMismatchError(ValueError):
    """Incompatible sizes between permutations / block structures."""


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def check_perm(p: Sequence[int]) -> Perm:
    p = tuple(int(a) for a in p)
    if not is_perm(p):
        raise SizeMismatchError(f"not a permutation: {p!r}")
    return p


def identity(n: int) -> Perm:
    return tuple(range(n))


def invert(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for a, b in enumerate(p):
        out[b] = a
    return tuple(out)


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """compose(p, q)[a] = p[q[a]]; applying compose(p, q) to a vector equals
    applying p first, then q (see module docstring)."""
    if len(p) != len(q):
        raise SizeMismatchError(f"compose: sizes {len(p)} != {len(q)}")
    return tuple(p[a] for a in q)


def apply_perm(p: Sequence[int], v):
    """Permute a sequence: position ``a`` of the output takes the value at
    position ``p[a]`` of the input.  Returns an ndarray for ndarray input,
    a tuple otherwise."""
    if len(p) != len(v):
        raise SizeMismatchError(f"apply: permutation on {len(p)} vs sequence of {len(v)}")
    if isinstance(v, np.ndarray):
        return v[np.fromiter(p, dtype=np.intp, count=len(p))]
    return tuple(v[a] for a in p)


def rotate_columns(values: np.ndarray, shifts: np.ndarray) -> None:
    """Rotate column k of ``values`` up by ``shifts[k]`` rows (0 <= shifts[k]
    <= the row count), in place.  The moved columns are taken as records and
    each is laid twice end to end; one gather then reads every record's
    window from its shift on, each window a contiguous run.  Columns go
    through about ``BLOCK_ENTRIES`` entries at a time, so the transposing
    copies stay in cache."""
    moved = np.flatnonzero(shifts)
    step = max(1, BLOCK_ENTRIES // len(values))
    for start in range(0, len(moved), step):
        cols = moved[start:start + step]
        records = values[:, cols].T
        doubled = np.concatenate((records, records), axis=1)
        windows = np.lib.stride_tricks.sliding_window_view(doubled, len(values), axis=1)
        values[:, cols] = windows[np.arange(len(cols)), shifts[cols]].T


def random_perm(n: int, rng: np.random.Generator) -> Perm:
    return tuple(int(a) for a in rng.permutation(n))


def from_one_line(images: Iterable[int]) -> Perm:
    """Convert 1-based one-line form (as printed in reports) to internal form."""
    return check_perm(tuple(int(a) - 1 for a in images))


def to_one_line(p: Sequence[int]) -> tuple:
    """Convert internal 0-based form to 1-based one-line form."""
    return tuple(int(a) + 1 for a in p)


@dataclass(frozen=True)
class BlockStructure:
    """Ordered positive block lengths partitioning [0, total)."""

    lengths: tuple = field()

    def __post_init__(self):
        lengths = tuple(int(x) for x in self.lengths)
        if not lengths or any(x < 1 for x in lengths):
            raise ValueError(f"block lengths must be positive: {self.lengths!r}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def block_count(self) -> int:
        return len(self.lengths)

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def block_starts(self) -> tuple:
        """0-based start offset of each block; strictly increasing."""
        starts, acc = [], 0
        for length in self.lengths:
            starts.append(acc)
            acc += length
        return tuple(starts)

    def subset_sums(self) -> tuple:
        """All distinct subset sums of the lengths, sorted ascending.

        Enumerates 2**block_count subsets, hence the size guard.
        """
        if self.block_count > SUBSET_SUM_MAX_BLOCKS:
            raise ValueError(f"subset-sum enumeration limited to {SUBSET_SUM_MAX_BLOCKS} blocks")
        sums = {0}
        for length in self.lengths:
            sums |= {s + length for s in sums}
        return tuple(sorted(sums))

    def permuted(self, sigma: Sequence[int]) -> "BlockStructure":
        """Lengths reordered so block m of the result is block sigma[m]."""
        if len(sigma) != self.block_count:
            raise SizeMismatchError("permuted: size mismatch")
        return BlockStructure(tuple(self.lengths[a] for a in sigma))


def operad_compose(sigma: Sequence[int], taus: Sequence[Sequence[int]]) -> Perm:
    """Graft the inner permutations ``taus`` into the outer permutation
    ``sigma``: input block n is sent, rearranged by taus[n], to the slot that
    sigma assigns it among the output blocks."""
    sigma = check_perm(sigma)
    if len(taus) != len(sigma):
        raise SizeMismatchError(f"operad: {len(sigma)} outer slots but {len(taus)} inner permutations")
    taus = [check_perm(t) for t in taus]
    lengths = [len(t) for t in taus]
    sinv = invert(sigma)
    # Cumulative lengths in output order: output slot m holds input block sinv[m].
    out_cum = [0]
    for m in range(len(sigma)):
        out_cum.append(out_cum[-1] + lengths[sinv[m]])
    result = [0] * sum(lengths)
    in_off = 0
    for n, tau in enumerate(taus):
        out_off = out_cum[sigma[n]]
        for pos, img in enumerate(tau):
            result[in_off + pos] = out_off + img
        in_off += lengths[n]
    return tuple(result)


def block_permutation(sigma: Sequence[int], blocks: BlockStructure) -> Perm:
    """The block permutation of ``sigma`` over ``blocks``: operad composition
    with identity inner permutations of sizes lengths[0..M)."""
    sigma = check_perm(sigma)
    if len(sigma) != blocks.block_count:
        raise SizeMismatchError(
            f"block_permutation: sigma on {len(sigma)} but {blocks.block_count} blocks")
    return operad_compose(sigma, [identity(x) for x in blocks.lengths])


def coherent_block_permutation(sigma: Sequence[int], blocks: BlockStructure) -> Perm:
    """The coherent block permutation of ``sigma``: the block permutation of
    sigma over the lengths pre-permuted by sigma.  Applying it to a vector
    laid out as blocks of ``blocks.lengths`` yields the blocks rearranged in
    the order sigma[0], sigma[1], ...; it permutes block intervals onto block
    intervals."""
    sigma = check_perm(sigma)
    if len(sigma) != blocks.block_count:
        raise SizeMismatchError(
            f"coherent_block_permutation: sigma on {len(sigma)} but {blocks.block_count} blocks")
    return block_permutation(sigma, blocks.permuted(sigma))


def all_perms(n: int):
    """All permutations of [0, n) in lexicographic order."""
    return (tuple(p) for p in itertools.permutations(range(n)))


def coherent_block_table(sigmas: Sequence[Sequence[int]], blocks: BlockStructure) -> np.ndarray:
    """The coherent block permutations of the block-level permutations
    ``sigmas`` as one (S, L) gather table: row i is the coherent block
    permutation of ``sigmas[i]``, so rows repeat where sigmas do.  Output
    block m of row i is input block sigmas[i][m], so position a there reads
    position a plus that block's start less the output block's start."""
    sigmas = np.array(sigmas, dtype=np.intp).reshape(len(sigmas), blocks.block_count)
    lengths = np.array(blocks.lengths)[sigmas]
    offsets = np.array(blocks.block_starts)[sigmas] - (np.cumsum(lengths, axis=1) - lengths)
    return (np.repeat(offsets.ravel(), lengths.ravel()).reshape(len(sigmas), blocks.total)
            + np.arange(blocks.total))
