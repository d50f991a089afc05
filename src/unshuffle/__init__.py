"""Unshuffling block-permuted records: corpus generation, two-block and
M-block solvers, probability verification, and a synchronization view."""

from .perms import (
    BlockStructure,
    apply_perm,
    block_permutation,
    coherent_block_permutation,
    compose,
    from_one_line,
    identity,
    invert,
    operad_compose,
    to_one_line,
)
from .model import (
    GroundTruth,
    ModelParams,
    ShuffledCorpus,
    apply_unshuffle,
    generate,
    make_rng,
    sample_ground_truth,
)
from .partitions import (
    PartitionProfile,
    RowPartition,
    distinct_subset_sums,
    partition_profile,
    row_partition,
    two_valued_rows,
)
from .two_block import TwoUnshuffleResult, unshuffle2
from .multi_block import (
    AlignConfig,
    MUnshuffleResult,
    recover_block_structure,
    unshuffle_m,
)
from .probs import (
    ProbReport,
    gap_decay,
    l_sets_exact_prob,
    monte_carlo,
    p2_closed,
    p_n_closed,
    prefix_partition_prob,
    stirling2,
)
from .sync import (
    PotentialAssignment,
    SyncInstance,
    brute_force_sync,
    objective_pairwise,
    objective_trace,
)

__version__ = "0.1.0"
