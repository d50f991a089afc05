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
    true_swapped = set(truth.swapped_columns)
    loci = set(truth.noise_loci)
    n_cols = len(truth.column_perms)

    found_swapped = set(result.swapped_cols)
    all_rows = set(range(total))
    loci_unswapped_side = all_rows - set(result.conserved_unswapped)
    loci_swapped_side = all_rows - set(result.conserved_swapped)
    shifted_loci = {(l - first_len) % total for l in loci}

    if 0 not in true_swapped:
        return (found_swapped == true_swapped
                and result.first_block_len == first_len
                and loci_unswapped_side == loci
                and loci_swapped_side == shifted_loci)
    # Gauge-swapped: the estimated "swapped" side is the truly unswapped one
    # and the estimated shift is the complementary block length.
    return (found_swapped == set(range(n_cols)) - true_swapped
            and result.first_block_len == (total - first_len) % total
            and loci_unswapped_side == shifted_loci
            and loci_swapped_side == loci)


def m_block_recovery(result: MUnshuffleResult, truth: GroundTruth) -> bool:
    """Perfect reconstruction up to the reference column's block order: the
    run succeeded, the block count and length multiset are exact, and every
    column lands in one common frame relative to the template."""
    if not result.success:
        return False
    if result.block_count != truth.blocks.block_count:
        return False
    if sorted(result.lengths) != sorted(truth.blocks.lengths):
        return False
    # Column n's frame is its true coherent block permutation composed with
    # its recovered permutation: frame[n, a] = cbp_n[perm_n[a]].
    table, index = coherent_block_table(truth.column_perms, truth.blocks)
    frames = np.take_along_axis(table[index], result.column_perms, axis=1)
    return bool(np.all(frames == frames[:1]))
