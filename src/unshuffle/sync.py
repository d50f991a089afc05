"""Unshuffling phrased as synchronization over the symmetric group: assign a
block-level permutation to each column so that the coherently repermuted
columns agree as much as possible.

Columns are embedded as real vectors: each symbol becomes a one-hot
indicator over the alphabet, so inner products count positionwise symbol
matches.  The objective is evaluated in two algebraically equal
forms (a pairwise inner-product sum and a trace of stacked operator
products) and minimized by brute force on tiny instances.

Convention: the shuffle behind an instance applies the *inverse* of a
column's coherent block permutation, so applying the assigned permutation
itself realigns the column.  Relabeling every assignment by a common
permutation of [0, L) (applied after the per-column one) changes nothing:
the objective depends only on relative alignments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ShuffledCorpus
from .perms import (
    BlockStructure,
    Perm,
    all_perms,
    apply_perm,
    check_perm,
    coherent_block_permutation,
    coherent_block_table,
)

SEARCH_CAP = 10 ** 6  # most assignments brute_force_sync will enumerate


class SearchSpaceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class SyncInstance:
    columns: np.ndarray        # L x N symbol matrix
    q: int
    blocks: BlockStructure     # candidate block structure

    @property
    def n_cols(self) -> int:
        return self.columns.shape[1]

    @property
    def length(self) -> int:
        return self.columns.shape[0]

    def embed(self, column: np.ndarray) -> np.ndarray:
        out = np.zeros(len(column) * self.q)
        out[np.arange(len(column)) * self.q + column] = 1.0
        return out


@dataclass(frozen=True)
class PotentialAssignment:
    sigmas: tuple  # per-column block-level Perm

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(check_perm(s) for s in self.sigmas))


def _realigned(instance: SyncInstance, assignment: PotentialAssignment) -> np.ndarray:
    """The (L, N) columns, each permuted by its assigned coherent block
    permutation: one gather through the sigmas' table."""
    if len(assignment.sigmas) != instance.n_cols:
        raise ValueError("one permutation per column required")
    table = coherent_block_table(assignment.sigmas, instance.blocks)
    return np.take_along_axis(instance.columns, table.T, axis=0)


def objective_pairwise(assignment: PotentialAssignment,
                       instance: SyncInstance) -> float:
    """Minus the sum over all column pairs (including self-pairs) of inner
    products of the realigned embedded columns.  The sum of the embedded
    columns counts each (row, symbol) pair, which is one ``bincount``."""
    realigned = _realigned(instance, assignment)
    counts = np.bincount((realigned + instance.q * np.arange(instance.length)[:, None]).ravel())
    return -float(counts @ counts)


def _perm_matrix(p: Perm) -> np.ndarray:
    """rho(p)[a, b] = (b == p[a]); rho(p) @ v == apply_perm(p, v)."""
    size = len(p)
    mat = np.zeros((size, size))
    mat[np.arange(size), list(p)] = 1.0
    return mat


def _lift(p: Perm, width: int) -> Perm:
    """A permutation of positions lifted to the embedded coordinates."""
    return tuple(p[a] * width + i for a in range(len(p)) for i in range(width))


def objective_trace(assignment: PotentialAssignment,
                    instance: SyncInstance) -> float:
    """Same value as :func:`objective_pairwise`, computed as minus the trace
    of the stacked operator product against the stacked data Gram matrix."""
    mats = []
    ys = []
    for j, sigma in enumerate(assignment.sigmas):
        cbp = coherent_block_permutation(sigma, instance.blocks)
        mats.append(_perm_matrix(_lift(cbp, instance.q)))
        ys.append(instance.embed(instance.columns[:, j]))
    # R stacks rho(g_j)^T vertically; the objective is -Tr(R R^T y y^T).
    stack = np.vstack([m.T for m in mats])
    y = np.concatenate(ys)
    return -float(np.trace(stack @ stack.T @ np.outer(y, y)))


def objective_with_global_relabel(assignment: PotentialAssignment,
                                  instance: SyncInstance, gauge: Perm) -> float:
    """The pairwise objective with a fixed extra permutation of [0, L)
    applied after every column's realignment; equal to the plain objective
    for every gauge (the sum of embedded columns is just repermuted)."""
    lifted = _lift(check_perm(gauge), instance.q)
    total = np.zeros(instance.length * instance.q)
    for col in _realigned(instance, assignment).T:
        total += apply_perm(lifted, instance.embed(col))
    return -float(total @ total)


def brute_force_sync(instance: SyncInstance) -> PotentialAssignment:
    """Exhaustive minimization over per-column block permutations.  Ties
    resolve to the lexicographically smallest assignment.

    The search cannot fix one column's permutation in advance: for
    non-uniform block lengths the objective's gauge freedom lives at the
    position level, not the block level, so pinning a column can exclude
    every perfectly synchronized assignment."""
    m = instance.blocks.block_count
    n = instance.n_cols
    if math.factorial(m) ** n > SEARCH_CAP:
        raise SearchSpaceTooLargeError(
            f"{math.factorial(m) ** n} assignments exceed cap {SEARCH_CAP}")
    candidates = list(all_perms(m))
    best = None
    best_value = None
    for sigmas in itertools.product(candidates, repeat=n):
        assignment = PotentialAssignment(sigmas)
        value = objective_pairwise(assignment, instance)
        if best_value is None or value < best_value:
            best, best_value = assignment, value
    return best


def sample_sync_instance(blocks: BlockStructure, q: int, n_cols: int,
                         rng: np.random.Generator,
                         noise_fraction: float = 0.0):
    """Draw a synchronization instance: template, per-column block orders,
    columns shuffled by the inverse coherent block permutations.  Returns
    (instance, template, true sigmas)."""
    total = blocks.total
    template = rng.integers(0, q, size=total, dtype=np.int64)
    loci = rng.random(total) < noise_fraction
    sigmas = []
    noisy = np.repeat(template[:, None], n_cols, axis=1)
    for j in range(n_cols):
        sigmas.append(tuple(int(a) for a in rng.permutation(blocks.block_count)))
        if loci.any():
            noisy[loci, j] = (noisy[loci, j] + rng.integers(0, q, size=int(loci.sum()))) % q
    # column j's position cbp[a] takes noisy position a: the inverse gather
    cols = np.empty_like(noisy)
    np.put_along_axis(cols, coherent_block_table(sigmas, blocks).T, noisy, axis=0)
    instance = SyncInstance(columns=cols, q=q, blocks=blocks)
    return instance, template, tuple(sigmas)


def realigned_corpus(instance: SyncInstance,
                     assignment: PotentialAssignment) -> ShuffledCorpus:
    """The instance's columns after applying the assigned coherent block
    permutations; the object the solvers are judged on."""
    return ShuffledCorpus(values=_realigned(instance, assignment), q=instance.q)
