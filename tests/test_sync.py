"""Synchronization view: objective identities, gauge freedom, brute force."""

import numpy as np
import pytest

from unshuffle.model import ModelParams, generate, make_rng
from unshuffle.perms import (
    BlockStructure,
    all_perms,
    apply_perm,
    coherent_block_permutation,
    coherent_block_table,
    compose,
    identity,
    invert,
    random_perm,
)
from unshuffle.sync import (
    SEARCH_CAP,
    PotentialAssignment,
    SearchSpaceTooLargeError,
    SyncInstance,
    brute_force_sync,
    objective_pairwise,
    objective_trace,
    objective_with_global_relabel,
    realigned_corpus,
    sample_sync_instance,
)


def relabel(assignment, gauge):
    """Every sigma right-multiplied by one fixed permutation of the blocks."""
    return PotentialAssignment(tuple(compose(s, gauge) for s in assignment.sigmas))


def random_instance(rng, m=3, uniform_lengths=False):
    if uniform_lengths:
        lengths = tuple([int(rng.integers(1, 4))] * m)
    else:
        lengths = tuple(int(x) for x in rng.integers(1, 4, size=m))
    blocks = BlockStructure(lengths)
    n_cols = int(rng.integers(2, 5))
    q = 5
    cols = rng.integers(0, q, size=(blocks.total, n_cols), dtype=np.int64)
    instance = SyncInstance(columns=cols, q=q, blocks=blocks)
    assignment = PotentialAssignment(
        tuple(random_perm(m, rng) for _ in range(n_cols)))
    return instance, assignment


def test_pairwise_equals_trace():
    rng = make_rng(0)
    for _ in range(50):
        instance, assignment = random_instance(rng)
        assert objective_pairwise(assignment, instance) == \
            pytest.approx(objective_trace(assignment, instance), abs=1e-9)


def test_pairwise_equals_naive_matrix_oracle():
    # [DERIVED] literal double loop over column pairs of embedded vectors.
    rng = make_rng(1)
    for _ in range(20):
        instance, assignment = random_instance(rng)
        cols = []
        for j, sigma in enumerate(assignment.sigmas):
            cbp = coherent_block_permutation(sigma, instance.blocks)
            cols.append(instance.embed(apply_perm(cbp, instance.columns[:, j])))
        naive = -sum(float(a @ b) for a in cols for b in cols)
        assert objective_pairwise(assignment, instance) == pytest.approx(naive)


def test_one_hot_objective_counts_matches():
    # with the indicator embedding, each pairwise inner product is the
    # number of positions where the realigned columns agree
    rng = make_rng(2)
    instance, assignment = random_instance(rng)
    value = objective_pairwise(assignment, instance)
    n = instance.n_cols
    total = instance.length
    # self-pairs alone contribute -n * L
    assert value <= -n * total
    assert value >= -n * n * total


def test_global_relabel_gauge_exact():
    rng = make_rng(3)
    for _ in range(20):
        instance, assignment = random_instance(rng)
        base = objective_pairwise(assignment, instance)
        gauge = random_perm(instance.length, rng)
        assert objective_with_global_relabel(assignment, instance, gauge) == \
            pytest.approx(base, abs=1e-9)


def test_block_relabel_gauge_uniform_lengths():
    # right-multiplying every assignment by a common block permutation is an
    # exact symmetry when all blocks have the same length
    rng = make_rng(4)
    for _ in range(20):
        instance, assignment = random_instance(rng, uniform_lengths=True)
        base = objective_pairwise(assignment, instance)
        gauge = random_perm(instance.blocks.block_count, rng)
        assert objective_pairwise(relabel(assignment, gauge), instance) == \
            pytest.approx(base, abs=1e-9)


def test_brute_force_recovers_noiseless():
    hits = 0
    for seed in range(20):
        rng = make_rng(seed)
        instance, template, sigmas = sample_sync_instance(
            BlockStructure((2, 3, 4)), q=17, n_cols=4, rng=rng)
        assignment = brute_force_sync(instance)
        aligned = realigned_corpus(instance, assignment)
        hits += bool(np.all(aligned.values == aligned.values[:, :1]))
    assert hits == 20


def test_sample_sync_instance_matches_tuple_construction():
    # [DERIVED] each column built from the same seed with the draws in their
    # contract order (per column: block order, then noise) and the inverse
    # tuple permutation.
    blocks = BlockStructure((2, 3, 4))
    for seed in range(5):
        instance, template, sigmas = sample_sync_instance(
            blocks, q=5, n_cols=6, rng=make_rng(seed), noise_fraction=0.3)
        rng = make_rng(seed)
        expected_template = rng.integers(0, 5, size=blocks.total, dtype=np.int64)
        loci = rng.random(blocks.total) < 0.3
        assert loci.any() and np.array_equal(template, expected_template)
        cols, expected_sigmas = [], []
        for _ in range(6):
            sigma = tuple(int(a) for a in rng.permutation(3))
            noisy = template.copy()
            noisy[loci] = (noisy[loci] + rng.integers(0, 5, size=int(loci.sum()))) % 5
            cols.append(apply_perm(invert(coherent_block_permutation(sigma, blocks)), noisy))
            expected_sigmas.append(sigma)
        assert sigmas == tuple(expected_sigmas)
        assert np.array_equal(instance.columns, np.column_stack(cols))


def test_brute_force_objective_is_minimal():
    rng = make_rng(7)
    instance, _, _ = sample_sync_instance(BlockStructure((2, 2)), q=5,
                                          n_cols=3, rng=rng,
                                          noise_fraction=0.3)
    best = brute_force_sync(instance)
    best_value = objective_pairwise(best, instance)
    import itertools
    for sigmas in itertools.product(list(all_perms(2)), repeat=3):
        a = PotentialAssignment(sigmas)
        assert objective_pairwise(a, instance) >= best_value - 1e-9


def test_brute_force_cap():
    rng = make_rng(8)
    cols = rng.integers(0, 4, size=(12, 9), dtype=np.int64)
    instance = SyncInstance(columns=cols, q=4,
                            blocks=BlockStructure((4, 4, 4)))
    assert 6 ** 9 > SEARCH_CAP
    with pytest.raises(SearchSpaceTooLargeError):
        brute_force_sync(instance)


def test_cross_check_with_two_block_solver():
    # noiseless two-block corpora: the sync minimizer and the two-block
    # pipeline must agree on the realigned corpus
    from unshuffle.two_block import unshuffle2
    params = ModelParams(q=17, blocks=BlockStructure((2, 3)), num_messages=4,
                         noise_fraction=0.0, shuffle=0.5, seed=6)
    corpus, truth = generate(params)
    result2 = unshuffle2(corpus)

    # shuffle convention differs: hand the sync solver columns it can undo
    # by applying a coherent block permutation directly
    inv_cols = np.empty_like(corpus.values)
    table = coherent_block_table(truth.sigmas, truth.blocks)
    for j, cbp in enumerate(table[truth.perm_index]):
        inv_cols[:, j] = apply_perm(invert(cbp), corpus.values[:, j])
    assert np.all(inv_cols == inv_cols[:, :1])  # sanity: noiseless

    rng = make_rng(6)
    instance, _, _ = sample_sync_instance(BlockStructure((2, 3)), q=17,
                                          n_cols=4, rng=rng)
    assignment = brute_force_sync(instance)
    aligned = realigned_corpus(instance, assignment)
    assert np.all(aligned.values == aligned.values[:, :1])
    # both solvers produce a corpus of identical columns
    assert np.all(result2.aligned.values == result2.aligned.values[:, :1])


def test_instance_from_corpus_and_assignment_validation():
    params = ModelParams(q=5, blocks=BlockStructure((2, 3)), num_messages=3,
                         noise_fraction=0.0, shuffle=0.4, seed=1)
    corpus, _ = generate(params)
    instance = SyncInstance(columns=corpus.values, q=corpus.q,
                            blocks=BlockStructure((2, 3)))
    assert instance.n_cols == 3 and instance.length == 5
    with pytest.raises(ValueError):
        PotentialAssignment(((0, 0),))
    with pytest.raises(ValueError):
        objective_pairwise(PotentialAssignment((identity(2),)), instance)


def test_embeddings():
    instance = SyncInstance(columns=np.array([[1], [0]]), q=3,
                            blocks=BlockStructure((1, 1)))
    assert instance.embed(np.array([1, 0])).tolist() == [0, 1, 0, 1, 0, 0]
