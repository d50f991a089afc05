"""Generative model: parameter validation, determinism, and an independent
straight-line reimplementation used as an oracle."""

import tracemalloc

import numpy as np
import pytest
from conftest import column_sigmas, headline_params, load_bench_module, perm_counts_arg
from hypothesis import assume, given, settings, strategies as st
from test_acceptance import _six_block_params

from unshuffle.corpus_io import WORD_DTYPES, word_bytes_for
from unshuffle.model import (
    HEADLINE_LENGTHS,
    HEADLINE_MULT,
    InfeasibleParamsError,
    ModelParams,
    Sampler,
    ShuffledCorpus,
    generate,
    headline_counts,
    make_rng,
)
from unshuffle.perms import (
    BlockStructure,
    all_perms,
    coherent_block_permutation,
    coherent_block_table,
)


def two_block_params(**overrides):
    base = dict(q=3, blocks=BlockStructure((4, 6)), num_messages=8,
                noise_fraction=0.3, shuffle=0.5, seed=11)
    base.update(overrides)
    return ModelParams(**base)


def test_param_validation():
    with pytest.raises(InfeasibleParamsError):
        two_block_params(q=1)
    with pytest.raises(InfeasibleParamsError):
        two_block_params(noise_fraction=1.5)
    with pytest.raises(InfeasibleParamsError):
        two_block_params(shuffle=-0.1)
    with pytest.raises(InfeasibleParamsError):
        two_block_params(num_messages=0)
    with pytest.raises(InfeasibleParamsError):
        # counts must sum to the number of messages
        two_block_params(shuffle={(0, 1): 3, (1, 0): 3})
    with pytest.raises(InfeasibleParamsError):
        # permutations must act on the right number of blocks
        two_block_params(shuffle={(0, 1, 2): 8})


def test_exact_counts():
    params = ModelParams(q=3, blocks=BlockStructure((40, 60)), num_messages=80,
                         noise_fraction=0.3, shuffle=0.3, seed=0)
    assert params.noise_count == 30
    assert params.shuffled_count == 24
    assert params.perm_counts() == {(0, 1): 56, (1, 0): 24}


def test_determinism():
    params = two_block_params()
    c1, t1 = generate(params)
    c2, t2 = generate(params)
    assert np.array_equal(c1.values, c2.values)
    assert np.array_equal(t1.noise_loci, t2.noise_loci)
    assert t1.sigmas == t2.sigmas
    assert np.array_equal(t1.perm_index, t2.perm_index)
    assert np.array_equal(t1.template, t2.template)


def test_different_seeds_differ():
    c1, _ = generate(two_block_params(seed=11))
    c2, _ = generate(two_block_params(seed=12))
    assert not np.array_equal(c1.values, c2.values)


def test_ground_truth_shapes():
    params = two_block_params()
    _, truth = generate(params)
    assert len(truth.template) == 10
    assert len(truth.noise_loci) == params.noise_count
    assert truth.perm_index.shape == (8,)
    assert truth.noise_loci.tolist() == sorted(truth.noise_loci.tolist())
    assert truth.sigmas == ((0, 1), (1, 0))
    # exactly the configured number of swapped columns
    assert truth.swapped.dtype == bool and truth.swapped.shape == (8,)
    assert truth.swapped.sum() == params.shuffled_count


def test_restricted_prefix_avoids_block_starts():
    blocks = BlockStructure((3, 4, 5))
    params = ModelParams(q=5, blocks=blocks, num_messages=6, noise_fraction=0.5,
                         shuffle={(0, 1, 2): 6}, restricted_prefix=True)
    batch = Sampler(params).batch(1000, make_rng(99))
    assert batch.loci.shape == (1000, params.noise_count)
    assert not np.isin(batch.loci, blocks.block_starts).any()


def test_distinguished_prefix_start_values_distinct():
    blocks = BlockStructure((2, 2, 2))
    starts = list(blocks.block_starts)
    params = ModelParams(q=3, blocks=blocks, num_messages=3, noise_fraction=0.4,
                         shuffle={(0, 1, 2): 3}, distinguished_prefix=True)
    batch = Sampler(params).batch(500, make_rng(5))
    assert all(len(set(row)) == 3 for row in batch.templates[:, starts].tolist())
    assert not np.isin(batch.loci, starts).any()


def test_noise_infeasible_when_all_positions_excluded():
    blocks = BlockStructure((1, 1, 1))
    params = ModelParams(q=7, blocks=blocks, num_messages=3, noise_fraction=1.0,
                         shuffle={(0, 1, 2): 3}, restricted_prefix=True)
    with pytest.raises(InfeasibleParamsError):
        generate(params, make_rng(0))


def straight_line_two_block(q, lengths, n, k, n_swapped, rng):
    """Replay the documented RNG stream (template, loci, column-order
    shuffle, then noise column by column) with explicit loops and block
    slicing instead of permutation machinery."""
    total = sum(lengths)
    template = rng.integers(0, q, size=total, dtype=np.int64)
    loci = sorted(int(x) for x in rng.choice(np.arange(total), size=k, replace=False))
    pool = [(0, 1)] * (n - n_swapped) + [(1, 0)] * n_swapped
    order = rng.permutation(n)
    perms = [pool[i] for i in order]
    noise = rng.integers(0, q, size=(n, k), dtype=np.int64)

    expected = np.empty((total, n), dtype=np.int64)
    for col in range(n):
        noisy = template.copy()
        noisy[loci] = (noisy[loci] + noise[col]) % q
        if perms[col] == (0, 1):
            expected[:, col] = noisy
        else:
            # swapped column: second block first
            expected[:, col] = np.concatenate([noisy[lengths[0]:], noisy[:lengths[0]]])
    return expected, template, loci, perms


def test_generate_against_straight_line_reimplementation():
    # [DERIVED] one corpus, then batches: a batch draws the same stream as
    # successive corpora, each trial with its own loci and column order.
    params = ModelParams(q=3, blocks=BlockStructure((2, 4)), num_messages=4,
                         noise_fraction=0.5, shuffle=0.5, seed=77)
    corpus, truth = generate(params)
    expected, template, loci, perms = straight_line_two_block(
        3, (2, 4), 4, 3, 2, make_rng(77))
    assert np.array_equal(corpus.values, expected)
    assert np.array_equal(truth.template, template)
    assert truth.noise_loci.tolist() == loci
    assert column_sigmas(truth) == perms

    for q, lengths, n, lam, nu, trials in [(3, (2, 4), 4, 0.5, 0.5, 5),
                                           (7, (40, 60), 700, 0.3, 0.4, 3),
                                           (5, (1, 2), 9, 0.0, 0.2, 4)]:
        params = ModelParams(q=q, blocks=BlockStructure(lengths), num_messages=n,
                             noise_fraction=lam, shuffle=nu)
        batch = Sampler(params).batch(trials, make_rng(5))
        assert batch.values.shape == (trials, sum(lengths), n)
        rng = make_rng(5)
        for t in range(trials):
            expected, template, loci, perms = straight_line_two_block(
                q, lengths, n, params.noise_count, params.shuffled_count, rng)
            truth = batch.truth(t)
            assert np.array_equal(batch.values[t], expected)
            assert np.array_equal(truth.template, template)
            assert truth.noise_loci.tolist() == loci
            assert column_sigmas(truth) == perms


@pytest.mark.parametrize("q, word", [(2, np.uint8), (3, np.uint8), (128, np.uint8),
                                     (129, np.uint8), (255, np.uint8), (256, np.uint8),
                                     (257, np.uint16), (65536, np.uint16),
                                     (65537, np.uint32), (2 ** 32, np.uint32),
                                     (2 ** 32 + 5, np.int64)])
def test_generated_corpus_is_in_the_smallest_word_dtype(q, word):
    # [DERIVED] equal to the int64 oracle in the smallest dtype holding q.
    # Where q fills its word, template plus noise passes the word's maximum
    # at some locus before the fold.  Records lie contiguous in the word,
    # so writing them in that word size needs no copy.
    lengths, n = (5, 9), 60
    params = ModelParams(q=q, blocks=BlockStructure(lengths), num_messages=n,
                         noise_fraction=0.5, shuffle=0.4, seed=q % 1000)
    corpus, truth = generate(params)
    assert corpus.values.dtype == word
    expected, template, loci, perms = straight_line_two_block(
        q, lengths, n, params.noise_count, params.shuffled_count, make_rng(params.seed))
    assert np.array_equal(corpus.values, expected)
    assert column_sigmas(truth) == perms
    folded = expected[np.ix_(loci, [c for c, p in enumerate(perms) if p == (0, 1)])]
    wrapped = folded < template[loci, None]
    top = np.iinfo(word).max
    assert wrapped.any()
    if q >= top:
        assert (folded[wrapped] + q).max() > top
    if q <= 2 ** 32:
        written = np.ascontiguousarray(corpus.values.T, dtype=WORD_DTYPES[word_bytes_for(q)])
        assert np.shares_memory(written, corpus.values)


def test_generate_peak_memory():
    # The bench's two-block corpus (q=3, L=1000, N=4000) at λ=0.5 and at
    # λ=0.3.  The corpus is 4 MB of 1-byte words; it is assembled one block
    # of about 2**18 entries at a time, and the last trial's (N, k) int64
    # noise (16 MB at λ=0.5) is drawn a block at a time, so only a block's
    # draw (about 1 MB) is live next to it: about 5.5 MB in all, where a
    # whole-corpus noise draw would raise the peak to about 24 MB.  A small
    # corpus first: the imports of a first call are not the generator's.
    generate(two_block_params())
    for noise_fraction in (0.5, 0.3):
        params = ModelParams(q=3, blocks=BlockStructure((400, 600)), num_messages=4000,
                             noise_fraction=noise_fraction, shuffle=0.3, seed=1)
        tracemalloc.start()
        try:
            generate(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, noise_fraction


def test_noise_values_roughly_uniform():
    params = ModelParams(q=4, blocks=BlockStructure((5, 5)), num_messages=200,
                         noise_fraction=0.8, shuffle=0.0, seed=21)
    corpus, truth = generate(params)
    # with no shuffling, noisy positions are template + uniform increments
    loci = truth.noise_loci
    deltas = (corpus.values[loci] - truth.template[loci, None]) % 4
    counts = np.bincount(deltas.ravel(), minlength=4)
    expected = deltas.size / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # chi-square 3 dof, p = 0.001


@pytest.mark.parametrize("dtype, q, bad", [(np.int64, 256, 256), (np.int64, 256, -1),
                                           (np.uint16, 256, 256), (np.uint16, 256, 65535),
                                           (np.uint8, 200, 200), (np.int8, 256, -1),
                                           (np.uint32, 2 ** 16, 2 ** 16)])
def test_range_check_where_the_dtype_can_exceed_q(dtype, q, bad):
    values = np.zeros((3, 4), dtype=dtype)
    ShuffledCorpus(values=values, q=q)
    values[1, 2] = bad
    with pytest.raises(ValueError, match=r"outside \[0, q\)"):
        ShuffledCorpus(values=values, q=q)


def test_corpus_validation_and_unshuffle():
    with pytest.raises(ValueError):
        ShuffledCorpus(values=np.array([[0, 5]]), q=3)
    with pytest.raises(ValueError):
        ShuffledCorpus(values=np.zeros(3, dtype=int), q=3)
    params = two_block_params()
    corpus, truth = generate(params)
    table = coherent_block_table(truth.sigmas, truth.blocks)
    restored = np.empty_like(corpus.values)
    restored[table[truth.perm_index].T, np.arange(8)] = corpus.values
    # undoing the shuffle leaves noisy copies of the template
    clean = np.setdiff1d(np.arange(10), truth.noise_loci)
    assert np.array_equal(restored[clean],
                          np.repeat(truth.template[clean, None], 8, axis=1))


def test_column_cbps_match_perms():
    params = two_block_params()
    _, truth = generate(params)
    table = coherent_block_table(truth.sigmas, truth.blocks)
    # one table row per distinct sigma, in the order of sigmas
    assert table.shape == (2, 10)
    for sigma, row in zip(column_sigmas(truth), table[truth.perm_index]):
        assert tuple(row.tolist()) == coherent_block_permutation(sigma, truth.blocks)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.one_of(st.integers(2, 6), st.just(2 ** 32 + 3)),
       m=st.integers(1, 4), n=st.integers(1, 12), lam=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       prefix=st.sampled_from(["", "restricted", "distinguished"]),
       fraction=st.booleans(), trials=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_equals_successive_generate_calls(data, q, m, n, lam, prefix, fraction,
                                                trials, seed):
    # Both shuffle forms: a two-block swapped fraction, or permutation counts.
    if fraction:
        m = 2
        shuffle = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    else:
        sigmas = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                                    max_size=4, unique=True))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=len(sigmas) - 1,
                                         max_size=len(sigmas) - 1)))
        shuffle = {s: b - a for s, a, b in zip(sigmas, [0, *cuts], [*cuts, n])}
    lengths = data.draw(st.tuples(*[st.integers(1, 5)] * m))
    assume(prefix != "distinguished" or q >= m)
    params = ModelParams(q=q, blocks=BlockStructure(lengths), num_messages=n,
                         noise_fraction=lam, shuffle=shuffle,
                         restricted_prefix=prefix == "restricted",
                         distinguished_prefix=prefix == "distinguished")
    assume(params.noise_count <= sum(lengths) - (m if prefix else 0))
    batch = Sampler(params).batch(trials, make_rng(seed))
    rng = make_rng(seed)
    for t in range(trials):
        corpus, truth = generate(params, rng)
        assert np.array_equal(batch.values[t], corpus.values)
        assert np.array_equal(batch.templates[t], truth.template)
        assert np.array_equal(batch.loci[t], truth.noise_loci)
        assert batch.sigmas == truth.sigmas
        assert np.array_equal(batch.perm_index[t], truth.perm_index)
        sliced = batch.truth(t)
        assert np.array_equal(sliced.template, truth.template)
        assert np.array_equal(sliced.noise_loci, truth.noise_loci)
        assert np.array_equal(sliced.perm_index, truth.perm_index)
        # every distinct sigma of the batch labels some column of each trial
        assert set(truth.perm_index.tolist()) == set(range(len(truth.sigmas)))
    # The batch drew exactly as much of the stream as the successive calls:
    # an over-draw on the last trial would throw every later chunk off it.
    tail = make_rng(seed)
    Sampler(params).batch(trials, tail)
    assert tail.bit_generator.state == rng.bit_generator.state
    assert tail.integers(0, 2 ** 62, size=4).tolist() == rng.integers(0, 2 ** 62, size=4).tolist()


def naive_batch(params, trials, rng):
    """Oracle for ``Sampler.batch``: replay the contract's draws trial by
    trial (template, ``choice``, ``permutation``, the (N, k) noise) from
    ``rng`` and build each column alone: the template, plus the noise mod q
    at the sorted loci, gathered through its sigma's table row."""
    q, n, total, k = params.q, params.num_messages, params.blocks.total, params.noise_count
    counts = sorted(params.perm_counts().items())
    pool = [i for i, (_, count) in enumerate(counts) for _ in range(count)]
    table = coherent_block_table(tuple(sigma for sigma, _ in counts), params.blocks)
    corpora = []
    for _ in range(trials):
        template = rng.integers(0, q, size=total, dtype=np.int64)
        loci = np.sort(rng.choice(total, k, replace=False)) if k else np.zeros(0, int)
        order = rng.permutation(n)
        noise = rng.integers(0, q, size=(n, k), dtype=np.int64)
        corpus = np.empty((total, n), dtype=np.int64)
        for col in range(n):
            record = template.copy()
            record[loci] = (record[loci] + noise[col]) % q
            corpus[:, col] = record[table[pool[order[col]]]]
        corpora.append(corpus)
    return corpora


@pytest.mark.parametrize("q, word", [(3, np.uint8), (256, np.uint8), (300, np.uint16),
                                     (2 ** 32, np.uint32), (2 ** 32 + 3, np.int64)])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("noise_fraction", [0.0, 0.3])
def test_block_assembly_against_naive_columns(q, word, trials, noise_fraction):
    # [DERIVED] records of 2000 words make a block of 131 records, so each
    # 300-record trial ends on a partial block; the last trial's noise is
    # drawn a block at a time, and the stream must still end where the
    # contract's calls end it.
    blocks = BlockStructure((700, 500, 800))
    params = ModelParams(q=q, blocks=blocks, num_messages=300,
                         noise_fraction=noise_fraction,
                         shuffle={(0, 1, 2): 100, (2, 0, 1): 120, (1, 2, 0): 80})
    rng, replay = make_rng(q + trials), make_rng(q + trials)
    batch = Sampler(params).batch(trials, rng)
    expected = naive_batch(params, trials, replay)
    assert batch.values.dtype == word
    for t in range(trials):
        assert batch.values[t].T.tobytes() == expected[t].T.astype(word).tobytes()
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("q", [2, 3, 256, 2 ** 16 + 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40])
@pytest.mark.parametrize("a, b", [(1, 1), (3, 6), (7, 0), (0, 5), (10, 33)])
def test_bounded_int64_draws_join_end_to_end(q, a, b):
    # Sampler.batch draws a trial's noise and the next trial's template in
    # one call, and the last trial's noise a block at a time; that keeps the
    # stream only because numpy's bounded int64 draws join end to end, on
    # the 32-bit paths (q <= 2**32, which buffer half-words in the bit
    # generator) and on the 64-bit Lemire path.  Split into two parts, and
    # into many, zero-size parts among them.
    splits = [(a, b), (0, a, 0, 0, b, 0), (1,) * (a + b),
              (2, 0, 3, 1, 0) * (a + b) + (a + b,)]
    for sizes in splits:
        joined, split = make_rng(q + a), make_rng(q + a)
        for rng in (joined, split):
            rng.integers(0, 5, size=1, dtype=np.int64)  # leave a half-word buffered
        whole = joined.integers(0, q, size=sum(sizes), dtype=np.int64)
        parts = [split.integers(0, q, size=size, dtype=np.int64) for size in sizes]
        assert whole.tolist() == np.concatenate(parts).tolist()
        assert joined.bit_generator.state == split.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_zero_size_draws_leave_the_stream_unchanged(seed):
    # The generator skips its loci draw when there are no noise loci, and
    # its last noise draw is then empty; that keeps the stream only because
    # numpy's zero-size draws consume no randomness, even with a 32-bit
    # half-word buffered, on both bounded paths.
    drawn, fresh = make_rng(seed), make_rng(seed)
    for rng in (drawn, fresh):
        rng.integers(0, 5, size=3, dtype=np.int64)
    drawn.choice(np.arange(7), size=0, replace=False)
    drawn.integers(0, 5, size=(4, 0), dtype=np.int64)
    for q in (5, 2 ** 32 + 1):
        drawn.integers(0, q, size=0, dtype=np.int64)
        drawn.integers(0, q, size=(0, 4), dtype=np.int64)
    assert drawn.bit_generator.state == fresh.bit_generator.state
    assert drawn.integers(0, 5, size=9).tolist() == fresh.integers(0, 5, size=9).tolist()
    assert drawn.integers(0, 2 ** 62, size=3).tolist() == \
        fresh.integers(0, 2 ** 62, size=3).tolist()


def test_acceptance_copy_of_the_headline_model_agrees():
    # Criterion 5 builds its six-block model by hand, an oracle independent
    # of model.py; these are its draws.
    for q, seeds in ((256, 50), (64, 10)):
        for seed in range(seeds):
            assert _six_block_params(q, seed) == headline_params(q, seed), (q, seed)


def test_benchmark_copy_of_the_headline_pool_agrees(monkeypatch):
    # bench/workloads.py keeps its own copy of the headline pool; the
    # m_block_many jobs of bench seeds 1 and 2 draw these specs.
    workloads = load_bench_module("workloads", monkeypatch)
    assert workloads.HEADLINE_LENGTHS == HEADLINE_LENGTHS
    assert tuple(workloads.HEADLINE_MULT) == HEADLINE_MULT
    for seed in (1, 2):
        for index in range(workloads.MBlockMany.pool):
            job_seed = workloads.job_seed(seed, index)
            for factor in workloads.MBlockMany.FACTORS:
                assert workloads.six_block_counts(job_seed, factor) == perm_counts_arg(
                    headline_counts(np.random.default_rng((job_seed, 0)), factor))
