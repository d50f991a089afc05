"""Two-block unshuffling pipeline, from hand-built corpora to the generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unshuffle.model import ModelParams, ShuffledCorpus, generate
from unshuffle.partitions import row_partition
from unshuffle.perms import BlockStructure
from unshuffle.scoring import two_block_recovery
from unshuffle.two_block import (
    NotIdentifiableError,
    align_cyclic,
    estimate_conserved_rows,
    estimate_swapped_columns,
    unshuffle2,
)


def build(template, n_cols, swapped, first_len, q, noisy_entries=()):
    """Columns: copies of the template, with the given entries overwritten
    and the swapped columns cyclically shifted by first_len."""
    template = np.asarray(template, dtype=np.int64)
    values = np.repeat(template[:, None], n_cols, axis=1)
    for row, col, value in noisy_entries:
        values[row, col] = value
    for col in swapped:
        values[:, col] = np.roll(values[:, col], -first_len)
    return ShuffledCorpus(values=values, q=q)


def test_noiseless_hand_case():
    # [DERIVED] q=5, blocks (2,4): swapped columns are the template rolled
    # left by 2; every row is two-valued unless the roll preserves it.
    template = [0, 1, 2, 3, 4, 0]
    c = build(template, n_cols=6, swapped=(2, 5), first_len=2, q=5)
    assert estimate_swapped_columns(c) == (2, 5)
    result = unshuffle2(c)
    assert result.swapped_cols == (2, 5)
    assert result.first_block_len == 2
    assert np.array_equal(result.aligned.values,
                          np.repeat(np.array(template)[:, None], 6, axis=1))


def align_oracle(v0, d0, v1, d1):
    """The literal double loop over shifts and positions."""
    total = len(v0)
    v0, d0, v1, d1 = v0.tolist(), d0.tolist(), v1.tolist(), d1.tolist()
    best_s, best_score = -1, -1
    for s in range(total):
        score = 0
        for l in range(total):
            i = (l + s) % total
            if d0[i] and d1[l] and v0[i] == v1[l]:
                score += 1
        if score > best_score:
            best_s, best_score = s, score
    return best_s, best_score


@st.composite
def side_templates(draw):
    """Two length-L templates over q values with random definedness.  Some
    draws have no pair of equal defined values at any shift: side 1 is
    undefined everywhere, or its values lie outside side 0's."""
    total = draw(st.integers(1, 60))
    q = draw(st.integers(2, 6))
    v0, v1 = (draw(arrays(np.int64, total, elements=st.integers(0, q - 1)))
              for _ in range(2))
    d0, d1 = (draw(arrays(np.bool_, total)) for _ in range(2))
    disjoint = draw(st.sampled_from(["", "", "", "", "undefined", "values"]))
    if disjoint == "undefined":
        d1[:] = False
    elif disjoint == "values":
        v1 += q
    return v0, d0, v1, d1


@settings(deadline=None)
@given(side_templates())
def test_align_cyclic_against_naive_search(templates):
    v0, d0, v1, d1 = templates
    got = align_cyclic(*templates)
    assert got == align_oracle(*templates)
    if not np.isin(v0[d0], v1[d1]).any():
        assert got == (0, 0)


def test_align_cyclic_across_blocks():
    # 700 defined positions on each side take more than one block of 2**18
    # comparisons, so the histogram sums several blocks.
    rng = np.random.default_rng(3)
    v0, v1 = rng.integers(0, 2, size=(2, 700))
    d0 = np.ones(700, dtype=bool)
    assert align_cyclic(v0, d0, v1, d0) == align_oracle(v0, d0, v1, d0)


def test_unswapped_only_not_identifiable():
    c = build([1, 2, 3, 4], n_cols=5, swapped=(), first_len=0, q=5)
    with pytest.raises(NotIdentifiableError):
        unshuffle2(c)


def test_estimate_conserved_rows():
    template = [0, 1, 2, 3]
    c = build(template, n_cols=4, swapped=(3,), first_len=1, q=7,
              noisy_entries=[(2, 0, 6), (1, 3, 5)])
    rows0, rows1 = estimate_conserved_rows(c, (3,))
    assert rows0 == (0, 1, 3)   # row 2 broken by noise on the unswapped side
    # swapped side is a single column, hence trivially constant everywhere
    assert rows1 == (0, 1, 2, 3)


def test_conserved_rows_rejects_degenerate_split():
    c = build([1, 2], n_cols=3, swapped=(), first_len=0, q=3)
    with pytest.raises(ValueError):
        estimate_conserved_rows(c, ())


def test_generated_recovery_noiseless():
    params = ModelParams(q=5, blocks=BlockStructure((2, 4)), num_messages=6,
                         noise_fraction=0.0, shuffle=0.5, seed=4)
    corpus, truth = generate(params)
    result = unshuffle2(corpus)
    assert two_block_recovery(result, truth)


def test_generated_recovery_with_noise():
    params = ModelParams(q=3, blocks=BlockStructure((40, 60)), num_messages=80,
                         noise_fraction=0.5, shuffle=0.3, seed=1)
    corpus, truth = generate(params)
    result = unshuffle2(corpus)
    assert two_block_recovery(result, truth)
    # estimated conserved rows include all truly noise-free loci on one side
    # and all shifted noise-free loci on the other (which is which depends on
    # whether column 0 landed in the true swapped set)
    noise_free = set(range(100)) - set(truth.noise_loci)
    shifted = {(l - 40) % 100 for l in noise_free}
    if 0 in truth.swapped_columns:
        noise_free, shifted = shifted, noise_free
    assert noise_free <= set(result.conserved_unswapped)
    assert shifted <= set(result.conserved_swapped)


def test_gauge_swap_when_column_zero_is_swapped():
    # construct a corpus whose column 0 belongs to the shuffled side: the
    # solver reports the complementary set and the complementary shift.
    params = ModelParams(q=5, blocks=BlockStructure((3, 5)), num_messages=6,
                         noise_fraction=0.0, shuffle=0.5, seed=0)
    corpus, truth = generate(params)
    swapped = list(truth.swapped_columns)
    if 0 not in swapped:
        # reorder columns to put a swapped one first
        order = swapped + [n for n in range(6) if n not in swapped]
        from unshuffle.model import GroundTruth
        corpus = ShuffledCorpus(values=corpus.values[:, order], q=corpus.q)
        truth = GroundTruth(template=truth.template,
                            noise_loci=truth.noise_loci,
                            column_perms=tuple(truth.column_perms[i] for i in order),
                            blocks=truth.blocks)
    assert 0 in truth.swapped_columns
    result = unshuffle2(corpus)
    assert 0 not in result.swapped_cols
    assert result.first_block_len == 5  # complement of the true length 3
    assert two_block_recovery(result, truth)


def test_alignment_score_bound():
    # score at the chosen shift is at least the number of loci untouched by
    # noise under both templates when estimates are exact
    params = ModelParams(q=3, blocks=BlockStructure((10, 15)), num_messages=40,
                         noise_fraction=0.2, shuffle=0.4, seed=9)
    corpus, truth = generate(params)
    result = unshuffle2(corpus)
    total = truth.blocks.total
    loci = set(truth.noise_loci)
    shifted_loci = {(l - 10) % total for l in loci}
    untouched = total - len(loci | shifted_loci)
    assert result.score >= untouched


def vote_oracle(corpus):
    """The bipartition vote written out row by row: count each two-part
    partition by its side without column 0; the earliest row breaks ties."""
    counts, order = {}, {}
    for row in range(corpus.n_rows):
        part = row_partition(corpus, row)
        if part.size != 2:
            continue
        side = part.parts[0] if 0 not in part.parts[0] else part.parts[1]
        counts[side] = counts.get(side, 0) + 1
        order.setdefault(side, row)
    if not counts:
        return None
    return max(counts, key=lambda s: (counts[s], -order[s]))


def check_vote(corpus):
    expected = vote_oracle(corpus)
    if expected is None:
        with pytest.raises(NotIdentifiableError):
            estimate_swapped_columns(corpus)
    else:
        assert estimate_swapped_columns(corpus) == expected


corpus_values = arrays(np.int64, st.tuples(st.integers(1, 10), st.integers(2, 20)),
                       elements=st.integers(0, 2))


@settings(deadline=None)
@given(corpus_values)
def test_swapped_vote_matches_oracle(values):
    check_vote(ShuffledCorpus(values=values, q=3))


@st.composite
def tied_corpora(draw):
    """Two bipartitions seen equally often, rows in random order, plus a
    few rows of random values."""
    n_cols = draw(st.integers(2, 20))
    side = st.lists(st.booleans(), min_size=n_cols - 1,
                    max_size=n_cols - 1).filter(any)
    repeats = draw(st.integers(1, 3))
    rows = [[0] + draw(side) for _ in range(2)] * repeats
    noise = draw(arrays(np.int64, (draw(st.integers(0, 3)), n_cols),
                        elements=st.integers(0, 2)))
    values = np.concatenate([np.array(rows, dtype=np.int64), noise])
    order = draw(st.permutations(range(len(values))))
    return ShuffledCorpus(values=values[list(order)], q=3)


@settings(deadline=None)
@given(tied_corpora())
def test_swapped_vote_tie_break_matches_oracle(corpus):
    check_vote(corpus)


@settings(deadline=None)
@given(corpus_values)
def test_realignment_matches_per_column_permutations(values):
    corpus = ShuffledCorpus(values=values, q=3)
    try:
        result = unshuffle2(corpus)
    except NotIdentifiableError:
        return
    expected = [np.roll(col, result.first_block_len)
                if n in result.swapped_cols else col
                for n, col in enumerate(corpus.values.T)]
    assert result.aligned.same_as(
        ShuffledCorpus(values=np.column_stack(expected), q=corpus.q))
