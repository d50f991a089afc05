"""Scoring recovered structure against generator ground truth.

Both solvers only recover structure up to a gauge: the two-block solver
cannot tell which side of the bipartition was swapped, and the M-block
solver aligns everything to the reference column's block order.  The
checks here are gauge-aware and exact.
"""

from __future__ import annotations

import numpy as np

from .model import GroundTruth
from .multi_block import MUnshuffleResult
from .perms import coherent_block_table
from .two_block import TwoUnshuffleResult


def two_block_recovery(result: TwoUnshuffleResult, truth: GroundTruth) -> bool:
    """Exact recovery of the swapped set, the shift, and the noise loci,
    allowing the side swap (result canonicalizes column 0 as unswapped)."""
    total = truth.blocks.total
    first_len = truth.blocks.lengths[0]
    true_swapped = truth.swapped
    loci = np.isin(np.arange(total), truth.noise_loci)
    shifted_loci = np.roll(loci, -first_len)  # the loci l moved to (l - first_len) % total
    if true_swapped[:1].any():
        # Gauge-swapped: the estimated "swapped" side is the truly unswapped
        # one and the estimated shift is the complementary block length.
        true_swapped, first_len = ~true_swapped, (total - first_len) % total
        loci, shifted_loci = shifted_loci, loci
    return bool(result.first_block_len == first_len
                and np.array_equal(result.swapped, true_swapped)
                and np.array_equal(~result.conserved, [loci, shifted_loci]))


def m_block_recovery(result: MUnshuffleResult, truth: GroundTruth) -> bool:
    """Perfect reconstruction up to the reference column's block order: the
    run succeeded, the block count and length multiset are exact, and every
    column lands in one common frame relative to the template."""
    if (not result.success or result.block_count != truth.blocks.block_count
            or sorted(result.lengths) != sorted(truth.blocks.lengths)):
        return False
    # Column n's frame is its true coherent block permutation composed with
    # its recovered permutation: frame[n, a] = cbp_n[perm_n[a]].
    table = coherent_block_table(truth.sigmas, truth.blocks)
    frames = table[truth.perm_index[:, None], result.column_perms]
    return bool(np.all(frames == frames[:1]))
