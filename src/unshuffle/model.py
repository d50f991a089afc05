"""Generative model for shuffled corpora.

A corpus is an L x N matrix over Z/qZ whose columns are messages: a fixed
random template of length L, with a fixed random subset of positions
("noise loci") resampled independently per message, and each message's
blocks rearranged by a per-message coherent block permutation.

RNG stream order is part of the contract (template, then noise loci, then
per-column permutations, then noise values column by column), so identical
seed and parameters give bit-identical output.  A batch of corpora draws
trial after trial in exactly that order; only the assembly of the drawn
values into columns is batched across trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .perms import BlockStructure, Perm, check_perm, coherent_block_table, identity


class InfeasibleParamsError(ValueError):
    """Model parameters that cannot be realized."""


def make_rng(seed) -> np.random.Generator:
    """The project-wide RNG: seedable, platform-independent (PCG64)."""
    return np.random.default_rng(seed)


TWO_BLOCK_SWAP: Perm = (1, 0)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the corpus generator.

    ``shuffle`` is either a float (two-block case: the fraction of columns
    that receive the block swap) or a mapping from block-level permutations
    (0-based one-line tuples on [0, M)) to exact column counts summing to
    ``num_messages``.  Fractions are realized as exact ceil counts.
    """

    q: int
    blocks: BlockStructure
    num_messages: int
    noise_fraction: float
    shuffle: Union[float, Mapping] = 0.0
    restricted_prefix: bool = False
    distinguished_prefix: bool = False
    seed: Optional[int] = None

    def __post_init__(self):
        if self.q < 2:
            raise InfeasibleParamsError(f"alphabet size must be >= 2, got {self.q}")
        if self.num_messages < 1:
            raise InfeasibleParamsError("need at least one message")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise InfeasibleParamsError(f"noise fraction outside [0, 1]: {self.noise_fraction}")
        if isinstance(self.shuffle, Mapping):
            counts = dict(self.shuffle)
            m = self.blocks.block_count
            for sigma, count in counts.items():
                check_perm(sigma)
                if len(sigma) != m:
                    raise InfeasibleParamsError(f"permutation {sigma!r} not on {m} blocks")
                if count < 0:
                    raise InfeasibleParamsError("negative column count")
            if sum(counts.values()) != self.num_messages:
                raise InfeasibleParamsError(
                    f"permutation counts sum to {sum(counts.values())}, expected {self.num_messages}")
        elif not 0.0 <= float(self.shuffle) <= 1.0:
            raise InfeasibleParamsError(f"shuffled fraction outside [0, 1]: {self.shuffle}")
        if self.distinguished_prefix and self.q < self.blocks.block_count:
            raise InfeasibleParamsError(
                f"distinguished prefix needs q >= M ({self.q} < {self.blocks.block_count})")

    @property
    def noise_count(self) -> int:
        """|noise loci| = ceil(noise_fraction * L); fractions round up."""
        return math.ceil(self.noise_fraction * self.blocks.total)

    @property
    def shuffled_count(self) -> int:
        """Two-block case: number of swapped columns = ceil(fraction * N)."""
        if isinstance(self.shuffle, Mapping):
            raise ValueError("shuffled_count is only defined for the two-block case")
        return math.ceil(float(self.shuffle) * self.num_messages)

    def perm_counts(self) -> dict:
        """Column counts per block-level permutation, in both cases."""
        m = self.blocks.block_count
        if isinstance(self.shuffle, Mapping):
            return {tuple(s): int(c) for s, c in self.shuffle.items() if c > 0}
        if m != 2:
            raise InfeasibleParamsError("fractional shuffle spec requires exactly 2 blocks")
        k = self.shuffled_count
        counts = {}
        if self.num_messages - k > 0:
            counts[identity(2)] = self.num_messages - k
        if k > 0:
            counts[TWO_BLOCK_SWAP] = k
        return counts


@dataclass(frozen=True)
class GroundTruth:
    """What the generator drew: template, noise loci, per-column permutations."""

    template: np.ndarray          # length L, values in [0, q)
    noise_loci: tuple             # sorted 0-based positions
    column_perms: tuple           # per-column block-level Perm on [0, M)
    blocks: BlockStructure

    @property
    def swapped_columns(self) -> tuple:
        """Columns whose permutation is not the identity (two-block: the
        shuffled set)."""
        ident = identity(self.blocks.block_count)
        return tuple(n for n, p in enumerate(self.column_perms) if p != ident)


@dataclass(frozen=True)
class ShuffledCorpus:
    """L x N matrix over Z/qZ; column n is message n."""

    values: np.ndarray
    q: int

    def __post_init__(self):
        a = np.asarray(self.values)
        if a.ndim != 2:
            raise ValueError(f"corpus must be 2-D, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= self.q):
            raise ValueError("corpus entries outside [0, q)")
        object.__setattr__(self, "values", a)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def sample_ground_truth(params: ModelParams, rng: np.random.Generator) -> GroundTruth:
    blocks = params.blocks
    total = blocks.total
    template = rng.integers(0, params.q, size=total, dtype=np.int64)
    starts = np.array(blocks.block_starts)
    if params.distinguished_prefix:
        # Resample the block-start values until they are pairwise distinct.
        while len(set(template[starts].tolist())) < blocks.block_count:
            template[starts] = rng.integers(0, params.q, size=len(starts), dtype=np.int64)

    if params.restricted_prefix or params.distinguished_prefix:
        allowed = np.setdiff1d(np.arange(total), starts)
    else:
        allowed = np.arange(total)
    k = params.noise_count
    if k > len(allowed):
        raise InfeasibleParamsError(
            f"{k} noise loci requested but only {len(allowed)} positions allowed")
    loci = tuple(sorted(int(x) for x in rng.choice(allowed, size=k, replace=False)))

    pool = []
    for sigma, count in sorted(params.perm_counts().items()):
        pool.extend([sigma] * count)
    order = rng.permutation(params.num_messages)
    column_perms = tuple(pool[i] for i in order)
    return GroundTruth(template=template, noise_loci=loci,
                       column_perms=column_perms, blocks=blocks)


def generate_batch(params: ModelParams, trials: int,
                   rng: Optional[np.random.Generator] = None):
    """Draw ``trials`` (corpus, ground truth) pairs from one stream, the same
    stream as ``trials`` successive :func:`generate` calls.

    The draws stay per trial, in stream order: the ground truth, then the
    noise values column by column, each column's loci in sorted order.  Only
    the assembly is batched: the columns of all trials lie on one flat axis
    and are built about 2**16 entries at a time (template, plus noise mod q
    at the trial's loci, gathered through the column's coherent block
    permutation), so the temporaries stay small however large the batch.

    Returns ``(values, truths)``: ``values[t]`` is the L x N corpus of trial
    ``t``, stored column by column (the record layout of a corpus file).
    """
    if rng is None:
        rng = make_rng(params.seed)
    n = params.num_messages
    truths, noise = [], []
    for _ in range(trials):
        truth = sample_ground_truth(params, rng)
        noise.append(rng.integers(0, params.q, size=(n, len(truth.noise_loci)),
                                  dtype=np.int64))
        truths.append(truth)
    noise = np.concatenate(noise)
    templates = np.stack([t.template for t in truths])
    loci = np.array([t.noise_loci for t in truths], dtype=np.intp)
    cbps, perm_index = coherent_block_table(
        [p for t in truths for p in t.column_perms], params.blocks)

    total = params.blocks.total
    out = np.empty((trials * n, total), dtype=np.int64)
    step = max(1, 2 ** 16 // total)
    for start in range(0, trials * n, step):
        stop = min(start + step, trials * n)
        trial = np.arange(start, stop) // n
        cols = templates[trial]
        at = (np.arange(stop - start)[:, None], loci[trial])
        cols[at] = (cols[at] + noise[start:stop]) % params.q
        out[start:stop] = np.take_along_axis(cols, cbps[perm_index[start:stop]], axis=1)
    return out.reshape(trials, n, total).transpose(0, 2, 1), truths


def generate(params: ModelParams, rng: Optional[np.random.Generator] = None):
    """Draw (corpus, ground truth).  With rng=None, a fresh generator is
    seeded from params.seed."""
    values, truths = generate_batch(params, 1, rng)
    return ShuffledCorpus(values=values[0], q=params.q), truths[0]
