"""Two-block unshuffling pipeline, from hand-built corpora to the generator."""

import tracemalloc

import numpy as np
import pytest
from conftest import column_sigmas, row_partition
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unshuffle.corpus_io import CorpusSpec, load_corpus, write_corpus
from unshuffle.model import GroundTruth, ModelParams, ShuffledCorpus, generate
from unshuffle.perms import BlockStructure, identity
from unshuffle.scoring import two_block_recovery
from unshuffle.two_block import (
    NotIdentifiableError,
    TwoUnshuffleResult,
    align_cyclic,
    estimate_conserved_rows,
    estimate_swapped_columns,
    side_conserved,
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
    assert np.flatnonzero(estimate_swapped_columns(c)).tolist() == [2, 5]
    result = unshuffle2(c)
    assert np.flatnonzero(result.swapped).tolist() == [2, 5]
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
    rows0, rows1 = estimate_conserved_rows(c, np.arange(4) == 3)
    # row 2 broken by noise on the unswapped side
    assert rows0.tolist() == [True, True, False, True]
    # swapped side is a single column, hence trivially constant everywhere
    assert rows1.tolist() == [True, True, True, True]


def test_conserved_rows_rejects_degenerate_split():
    c = build([1, 2], n_cols=3, swapped=(), first_len=0, q=3)
    for swapped, message in (([False] * 3, "nonempty and proper"),
                             ([True] * 3, "nonempty and proper"),
                             ([False, True], r"mask must have shape \(3,\)")):
        with pytest.raises(ValueError, match=message):
            estimate_conserved_rows(c, np.array(swapped))


def conserved_rows_oracle(values, swapped):
    """Row by row: is the row one value over each side?"""
    sides = [[n for n, s in enumerate(swapped.tolist()) if s == side]
             for side in (False, True)]
    return [[len(set(row[side].tolist())) == 1 for row in values] for side in sides]


@st.composite
def corpora_with_proper_masks(draw):
    values = draw(arrays(np.int64, st.tuples(st.integers(1, 10), st.integers(2, 20)),
                         elements=st.integers(0, 2)))
    swapped = draw(arrays(np.bool_, values.shape[1]).filter(lambda m: 0 < m.sum() < len(m)))
    return ShuffledCorpus(values=values, q=3), swapped


@settings(deadline=None)
@given(corpora_with_proper_masks())
def test_conserved_rows_match_row_loop(case):
    corpus, swapped = case
    conserved = estimate_conserved_rows(corpus, swapped)
    assert conserved.shape == (2, corpus.n_rows) and conserved.dtype == bool
    assert conserved.tolist() == conserved_rows_oracle(corpus.values, swapped)


@settings(deadline=None, max_examples=200)
@given(dtype=st.sampled_from([np.uint8, np.uint16, np.int64]), data=st.data(),
       shape=st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(1, 10)))
def test_side_conserved_on_a_batch_matches_one_corpus_at_a_time(dtype, data, shape):
    # The Monte Carlo of the conserved-row closed forms calls the kernel on a
    # (T, L, N) batch with a (T, N) side per corpus; the solver calls it on
    # one (L, N) corpus.  Sides may be empty or whole.
    values = data.draw(arrays(dtype, shape, elements=st.integers(0, 2)))
    side = data.draw(arrays(np.bool_, (shape[0], shape[2])))
    conserved = side_conserved(values, side)
    assert conserved.shape == shape[:2] and conserved.dtype == bool
    for t in range(shape[0]):
        assert np.array_equal(conserved[t], side_conserved(values[t], side[t]))


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
    noise_free = set(range(100)) - set(truth.noise_loci.tolist())
    shifted = {(l - 40) % 100 for l in noise_free}
    if truth.swapped[0]:
        noise_free, shifted = shifted, noise_free
    assert result.conserved[0, sorted(noise_free)].all()
    assert result.conserved[1, sorted(shifted)].all()


def test_load_and_unshuffle2_peak_memory(tmp_path):
    # The loaded 4 MB corpus is the file's own records, with no transposing
    # copy; the aligned copy adds 4 MB and the rotation's blocks about 1.4 MB
    # (about 9.4 MB in all).  A side mask that kept the vote's (rows, N)
    # masks alive, or a load that transposed, would pass 10 MB.
    params = ModelParams(q=3, blocks=BlockStructure((400, 600)), num_messages=4000,
                         noise_fraction=0.5, shuffle=0.3, seed=1)
    spec = CorpusSpec(source=tmp_path / "corpus.bin", record_len=1000)
    write_corpus(generate(params)[0], spec)
    tracemalloc.start()
    try:
        unshuffle2(load_corpus(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.6e6


def test_gauge_swap_when_column_zero_is_swapped():
    # construct a corpus whose column 0 belongs to the shuffled side: the
    # solver reports the complementary set and the complementary shift.
    params = ModelParams(q=5, blocks=BlockStructure((3, 5)), num_messages=6,
                         noise_fraction=0.0, shuffle=0.5, seed=0)
    corpus, truth = generate(params)
    if not truth.swapped[0]:
        # reorder columns to put a swapped one first
        order = np.argsort(~truth.swapped, kind="stable")
        corpus = ShuffledCorpus(values=corpus.values[:, order], q=corpus.q)
        truth = GroundTruth(template=truth.template, noise_loci=truth.noise_loci,
                            sigmas=truth.sigmas, perm_index=truth.perm_index[order],
                            blocks=truth.blocks)
    assert truth.swapped[0]
    result = unshuffle2(corpus)
    assert not result.swapped[0]
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
    loci = set(truth.noise_loci.tolist())
    shifted_loci = {(l - 10) % total for l in loci}
    untouched = total - len(loci | shifted_loci)
    assert result.score >= untouched


def two_block_recovery_oracle(result, truth):
    """The set check that the masks in ``two_block_recovery`` replaced; the
    result's masks become sets here."""
    total = truth.blocks.total
    first_len = truth.blocks.lengths[0]
    ident = identity(truth.blocks.block_count)
    true_swapped = {n for n, sigma in enumerate(column_sigmas(truth)) if sigma != ident}
    loci = set(truth.noise_loci.tolist())
    n_cols = len(truth.perm_index)

    found_swapped = set(np.flatnonzero(result.swapped).tolist())
    all_rows = set(range(total))
    loci_unswapped_side = all_rows - set(np.flatnonzero(result.conserved[0]).tolist())
    loci_swapped_side = all_rows - set(np.flatnonzero(result.conserved[1]).tolist())
    shifted_loci = {(l - first_len) % total for l in loci}

    if 0 not in true_swapped:
        return (found_swapped == true_swapped
                and result.first_block_len == first_len
                and loci_unswapped_side == loci
                and loci_swapped_side == shifted_loci)
    return (found_swapped == set(range(n_cols)) - true_swapped
            and result.first_block_len == (total - first_len) % total
            and loci_unswapped_side == shifted_loci
            and loci_swapped_side == loci)


@st.composite
def two_block_recovery_cases(draw):
    """A two-block ground truth, column 0 swapped or not, and the result
    that recovers it exactly in the solver's gauge (column 0 unswapped);
    then possibly one column moved across the bipartition, another shift,
    or one row toggled in either conserved set.  Returns (result, truth,
    untouched)."""
    lengths = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    blocks = BlockStructure(lengths)
    total = blocks.total
    n_cols = draw(st.integers(1, 10))
    swapped = draw(arrays(np.bool_, n_cols))
    loci = np.array(sorted(draw(st.sets(st.integers(0, total - 1)))), dtype=np.intp)
    truth = GroundTruth(template=np.zeros(total, dtype=np.int64), noise_loci=loci,
                        sigmas=((0, 1), (1, 0)), perm_index=swapped.astype(np.intp),
                        blocks=blocks)
    noise = set(loci.tolist())
    shifted = {(l - lengths[0]) % total for l in noise}
    first_len = lengths[0]
    if swapped[0]:
        swapped, first_len, noise, shifted = ~swapped, total - first_len, shifted, noise
    exact = [tuple(np.flatnonzero(swapped).tolist()), first_len,
             tuple(sorted(set(range(total)) - noise)),
             tuple(sorted(set(range(total)) - shifted))]
    fields = list(exact)
    change = draw(st.sampled_from(["", "column", "shift", "unswapped", "swapped"]))
    if change == "column":
        fields[0] = tuple(sorted(set(fields[0]) ^ {draw(st.integers(0, n_cols - 1))}))
    elif change == "shift":
        fields[1] = draw(st.integers(0, total))
    elif change:
        side = 2 if change == "unswapped" else 3
        fields[side] = tuple(sorted(set(fields[side]) ^ {draw(st.integers(0, total - 1))}))
    result = TwoUnshuffleResult(
        swapped=np.isin(np.arange(n_cols), fields[0]), first_block_len=fields[1],
        conserved=np.array([np.isin(np.arange(total), rows) for rows in fields[2:]]),
        aligned=ShuffledCorpus(values=np.zeros((total, n_cols), dtype=np.int64), q=2),
        score=0)
    return result, truth, fields == exact


@settings(deadline=None, max_examples=300)
@given(two_block_recovery_cases())
def test_two_block_recovery_matches_set_oracle(case):
    result, truth, untouched = case
    expected = two_block_recovery_oracle(result, truth)
    assert two_block_recovery(result, truth) is expected
    if untouched:
        assert expected


def vote_oracle(corpus):
    """The bipartition vote written out row by row: count each two-part
    partition by its side without column 0; the earliest row breaks ties."""
    counts, order = {}, {}
    for row in range(corpus.n_rows):
        parts = row_partition(corpus.values[row])
        if len(parts) != 2:
            continue
        side = parts[1]  # parts[0] holds column 0
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
        assert tuple(np.flatnonzero(estimate_swapped_columns(corpus)).tolist()) == expected


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
    # Loaded and generated corpora are record-major (F-order), a row-major
    # corpus realigns to the same bytes; both are stored record by record.
    corpus = ShuffledCorpus(values=np.ascontiguousarray(values), q=3)
    try:
        result = unshuffle2(corpus)
    except NotIdentifiableError:
        return
    expected = [np.roll(col, result.first_block_len)
                if result.swapped[n] else col
                for n, col in enumerate(corpus.values.T)]
    assert result.aligned.q == corpus.q
    assert np.array_equal(result.aligned.values, np.column_stack(expected))
    by_records = unshuffle2(ShuffledCorpus(values=np.asfortranarray(values), q=3))
    by_rows, by_records = result.aligned.values.T, by_records.aligned.values.T
    assert by_rows.flags.c_contiguous and by_records.flags.c_contiguous
    assert by_records.tobytes() == by_rows.tobytes()
