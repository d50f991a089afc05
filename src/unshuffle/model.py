"""Generative model for shuffled corpora.

A corpus is an L x N matrix over Z/qZ whose columns are messages: a fixed
random template of length L, with a fixed random subset of positions
("noise loci") resampled independently per message, and each message's
blocks rearranged by a per-message coherent block permutation.

The RNG contract is the per-trial call order: the template (then, with a
distinguished prefix, its block-start values until they are distinct), the
noise loci (``choice``), the column order (``permutation``), then the
noise values column by column.  Identical seed and parameters give
bit-identical output.  A zero-size draw consumes no randomness, so a model
without noise loci draws neither loci nor noise values.  A batch of
corpora draws trial after trial in exactly that order; the per-parameter
set-up (:class:`Sampler`) is built once, and the assembly of the drawn
values into columns runs one cache-sized block of records at a time.
Since a trial's noise and the next trial's template are both bounded int64
draws and numpy's bounded draws join end to end, the batch takes them in
one call, and draws the last trial's noise (the end of the stream) block
by block as it assembles: the grouping of the calls changes, the stream
does not.  Generated corpora come in the smallest word dtype that holds q
(``uint8``, ``uint16`` or ``uint32``; int64 beyond 2**32 symbols), with
each record contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .perms import (BLOCK_ENTRIES, BlockStructure, Perm, check_perm, coherent_block_table,
                    identity, random_perm)


class InfeasibleParamsError(ValueError):
    """Model parameters that cannot be realized."""


def make_rng(seed) -> np.random.Generator:
    """The project-wide RNG: seedable, platform-independent (PCG64)."""
    return np.random.default_rng(seed)


TWO_BLOCK_SWAP: Perm = (1, 0)

# The source paper's headline experiment (with a restricted prefix, L=82):
# six blocks, and 31 distinct block permutations with these column
# multiplicities (N=80).
HEADLINE_LENGTHS = (11, 11, 12, 12, 16, 20)
HEADLINE_MULT = (16, 8, 8, 4, 4, 4, 4) + (2,) * 8 + (1,) * 16


def realized_count(fraction: float, size: int) -> int:
    """The exact count a fraction of ``size`` is realized as: ceil, as drawn."""
    return math.ceil(fraction * size)


def headline_counts(rng: np.random.Generator, factor: int = 1) -> dict:
    """The headline pool: the first 31 distinct permutations of the six
    blocks that :func:`random_perm` draws from ``rng``, in draw order, each
    mapped to its multiplicity times ``factor``."""
    pool = {}
    while len(pool) < len(HEADLINE_MULT):
        pool.setdefault(random_perm(len(HEADLINE_LENGTHS), rng))
    return {sigma: m * factor for sigma, m in zip(pool, HEADLINE_MULT)}


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
        """|noise loci| = ceil(noise_fraction * L)."""
        return realized_count(self.noise_fraction, self.blocks.total)

    @property
    def shuffled_count(self) -> int:
        """Two-block case: number of swapped columns = ceil(fraction * N)."""
        if isinstance(self.shuffle, Mapping):
            raise ValueError("shuffled_count is only defined for the two-block case")
        return realized_count(float(self.shuffle), self.num_messages)

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
    """What the generator drew for one corpus, as arrays: column n was
    rearranged by the coherent block permutation of sigmas[perm_index[n]]."""

    template: np.ndarray    # (L,), values in [0, q)
    noise_loci: np.ndarray  # sorted 0-based positions, intp
    sigmas: tuple           # distinct block-level permutations on [0, M), sorted
    perm_index: np.ndarray  # (N,) index into sigmas
    blocks: BlockStructure

    @property
    def swapped(self) -> np.ndarray:
        """(N,) bool mask of the columns whose permutation is not the
        identity (two-block: the shuffled set)."""
        ident = identity(self.blocks.block_count)
        return np.array([s != ident for s in self.sigmas], dtype=bool)[self.perm_index]


@dataclass(frozen=True)
class ShuffledCorpus:
    """L x N matrix over Z/qZ; column n is message n.  ``values`` may have
    any integer dtype and memory layout; generated and loaded corpora are
    both stored column by column (record-major), generated ones in the
    smallest word dtype that holds q and loaded ones in their file's word
    dtype (see :func:`unshuffle.corpus_io.load_corpus`)."""

    values: np.ndarray
    q: int

    def __post_init__(self):
        a = np.asarray(self.values)
        if a.ndim != 2:
            raise ValueError(f"corpus must be 2-D, got shape {a.shape}")
        # Unsigned entries cannot be negative, and none can reach q if the
        # dtype's largest value is below it.
        unsigned = a.dtype.kind == "u"
        if a.size and not (unsigned and np.iinfo(a.dtype).max < self.q) and (
                a.max() >= self.q or (not unsigned and a.min() < 0)):
            raise ValueError("corpus entries outside [0, q)")
        object.__setattr__(self, "values", a)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


class Sampler:
    """The generator's per-parameter set-up, built once and reused by every
    trial drawn from it: the block starts, the positions allowed to be noise
    loci, the distinct block-level permutations in sorted order
    (``sigmas``), the column pool as an index into them (``pool``: each
    sigma's index repeated by its column count, ``pool_bounds`` where each
    sigma's run starts), their (S, L) coherent block permutation gather
    table (``table[i]`` belongs to ``sigmas[i]``), the indices of the sigmas
    whose row moves a position (``moved``), and the word dtype of the
    corpora (``dtype``: the smallest that holds q) with q as a word
    (``q_word``, modulo 2**bits)."""

    def __init__(self, params: ModelParams):
        blocks = params.blocks
        self.params = params
        self.starts = np.array(blocks.block_starts)
        if params.restricted_prefix or params.distinguished_prefix:
            self.allowed = np.setdiff1d(np.arange(blocks.total), self.starts)
        else:
            self.allowed = np.arange(blocks.total)
        k = params.noise_count
        if k > len(self.allowed):
            raise InfeasibleParamsError(
                f"{k} noise loci requested but only {len(self.allowed)} positions allowed")
        counts = sorted(params.perm_counts().items())
        self.sigmas = tuple(sigma for sigma, _ in counts)
        sizes = [count for _, count in counts]
        self.pool = np.repeat(np.arange(len(counts)), sizes)
        self.pool_bounds = np.cumsum([0, *sizes])
        self.table = coherent_block_table(self.sigmas, blocks)
        self.moved = np.flatnonzero((self.table != np.arange(blocks.total)).any(axis=1))
        self.dtype = (np.min_scalar_type(params.q - 1) if params.q <= 2 ** 32
                      else np.dtype(np.int64))
        self.q_word = self.dtype.type(params.q % 2 ** (8 * self.dtype.itemsize))

    def batch(self, trials: int, rng: np.random.Generator) -> "Batch":
        """Draw ``trials`` corpora from ``rng``, the same stream as
        ``trials`` successive :func:`generate` calls.

        Each trial makes its RNG calls in the contract's order: the
        template, the distinguished-prefix resampling, the noise loci
        (``choice``), the column order (``permutation``), then the (N, k)
        noise values.  The noise values and the next trial's template come
        from one ``integers`` call, the same draws as two calls: the
        resampling reads its template from the tail of that draw.  The
        last trial's noise is drawn last of all, one block of records at a
        time during the assembly; since bounded int64 draws join end to end
        and nothing follows it, the stream is unchanged.  A zero-size draw
        consumes no randomness, so with no noise loci the loci call is
        skipped and no noise is drawn.  The loci are drawn as indices into
        the allowed positions (``choice`` of an array draws the same
        indices) and mapped through them once, after the loop.

        The assembly runs in the word dtype, one block of about
        ``BLOCK_ENTRIES`` entries at a time: a block is a run of one
        trial's records or, where a trial fits, a run of whole trials, so
        a Monte Carlo chunk is one block.  Each block is filled with its
        trials' templates, and the noise mod q goes in at the trial's loci
        while the block is in cache, with the wrap test on words.  So a
        one-trial batch (every :func:`generate` call) never holds more than
        a block of int64 noise; a larger batch holds its earlier trials'
        noise, drawn with the next templates, until their blocks.  The
        columns of each moved sigma are then gathered through its table
        row, a block's worth of records at a time.  Records lie contiguous:
        ``values[t]`` is an (L, N) view of an (N, L) array."""
        params = self.params
        q, n, total, k = params.q, params.num_messages, params.blocks.total, params.noise_count
        starts, allowed = self.starts, self.allowed
        draws = [rng.integers(0, q, size=total, dtype=np.int64)]
        picks, orders = [], []
        for t in range(trials):
            if params.distinguished_prefix:
                # Resample the block-start values until they are pairwise distinct.
                template = draws[-1][-total:]
                while len(set(template[starts].tolist())) < len(starts):
                    template[starts] = rng.integers(0, q, size=len(starts), dtype=np.int64)
            if k:
                picks.append(rng.choice(len(allowed), k, replace=False))
            orders.append(rng.permutation(n))
            if t + 1 < trials:
                # This trial's noise, then the next trial's template, in one call.
                draws.append(rng.integers(0, q, size=n * k + total, dtype=np.int64))
        # Laid end to end, the draws are the earlier trials' (template |
        # noise) records, then the last trial's template.
        joined = np.concatenate(draws)
        head = joined[:-total].reshape(trials - 1, total + n * k)
        templates = np.concatenate([head[:, :total], joined[None, -total:]])
        stored = head[:, total:].reshape(trials - 1, n, k)
        loci = allowed[np.array(picks, dtype=np.intp).reshape(trials, k)]
        loci.sort(axis=1)
        perm_index = self.pool[np.array(orders)]
        base = np.take_along_axis(templates, loci, axis=1)
        # Both terms are below q, so their sum passes q at most once: where
        # the noise exceeds q - 1 - base, which fits the word.  Word
        # arithmetic is modulo 2**bits, so the sum less q lands in [0, q)
        # even where the sum overflows the word.
        room = (q - 1 - base).astype(self.dtype)[:, None]
        base = base.astype(self.dtype)[:, None]
        words = templates.astype(self.dtype)[:, None]

        out = np.empty((trials, n, total), dtype=self.dtype)
        span = max(1, BLOCK_ENTRIES // total)  # records per block
        group = max(1, span // n)  # whole trials per block, if a trial fits in one
        for t0 in range(0, trials, group):
            t1 = min(t0 + group, trials)
            for a in range(0, n, span):
                b = min(a + span, n)
                block = out[t0:t1, a:b]
                block[...] = words[t0:t1]
                if not k:
                    continue
                noise = np.empty((t1 - t0, b - a, k), dtype=self.dtype)
                earlier = stored[t0:t1, a:b]
                noise[:len(earlier)] = earlier
                if t1 == trials:
                    # Nothing follows the last trial's noise in the stream,
                    # so it is drawn here, a block at a time.
                    noise[-1] = rng.integers(0, q, size=(b - a, k), dtype=np.int64)
                wraps = noise > room[t0:t1]
                noise += base[t0:t1]
                noise -= wraps * self.q_word
                block.transpose(0, 2, 1)[np.arange(t1 - t0)[:, None], loci[t0:t1]] = \
                    noise.transpose(0, 2, 1)
        flat, bounds = out.reshape(trials * n, total), trials * self.pool_bounds
        by_sigma = np.argsort(perm_index, axis=None, kind="stable")
        for i in self.moved:
            cols = by_sigma[bounds[i]:bounds[i + 1]]
            for c in range(0, len(cols), span):
                part = cols[c:c + span]
                flat[part] = flat.take(part, axis=0).take(self.table[i], axis=1)
        return Batch(values=out.transpose(0, 2, 1), templates=templates, loci=loci, perm_index=perm_index,
                     sigmas=self.sigmas, blocks=params.blocks)


@dataclass(frozen=True)
class Batch:
    """Corpora drawn in one batch and what the generator drew for each, as
    arrays indexed by trial; ``truth(t)`` is trial t's slice of them."""

    values: np.ndarray      # (T, L, N); values[t] is trial t's corpus, stored column by column
    templates: np.ndarray   # (T, L)
    loci: np.ndarray        # (T, k) noise loci, each row sorted
    perm_index: np.ndarray  # (T, N); column n of trial t is permuted by sigmas[perm_index[t, n]]
    sigmas: tuple           # distinct block-level permutations, sorted
    blocks: BlockStructure

    def truth(self, t: int) -> GroundTruth:
        return GroundTruth(template=self.templates[t], noise_loci=self.loci[t],
                           sigmas=self.sigmas, perm_index=self.perm_index[t],
                           blocks=self.blocks)


def generate(params: ModelParams, rng: Optional[np.random.Generator] = None):
    """Draw (corpus, ground truth).  With rng=None, a fresh generator is
    seeded from params.seed."""
    batch = Sampler(params).batch(1, make_rng(params.seed) if rng is None else rng)
    return ShuffledCorpus(values=batch.values[0], q=params.q), batch.truth(0)
