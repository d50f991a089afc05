"""Dtype and layout invariance: a corpus stored as int64 column by column
and the same corpus stored row-major in a 1-, 2- or 4-byte word dtype give
identical results from every row kernel and both solvers.  Symbols are
spread over the narrow dtype's whole range, so wrapped arithmetic in the
narrow type would show."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unshuffle.model import ModelParams, ShuffledCorpus, generate
from unshuffle.multi_block import unshuffle_m
from unshuffle.partitions import row_stats
from unshuffle.perms import BlockStructure, all_perms
from unshuffle.two_block import (
    NotIdentifiableError,
    estimate_conserved_rows,
    estimate_swapped_columns,
    unshuffle2,
)

WORDS = [np.uint8, np.uint16, np.uint32]


def two_layouts(data, corpus, word):
    """The generated corpus with its q symbols renamed to distinct values of
    ``word`` (hypothesis favours 0 and the maximum), once as int64 stored
    column by column and once as a C-contiguous ``word`` array."""
    top = int(np.iinfo(word).max)
    palette = np.array(data.draw(st.lists(st.integers(0, top), min_size=corpus.q,
                                          max_size=corpus.q, unique=True)),
                       dtype=np.int64)
    wide = np.asfortranarray(palette[corpus.values])
    narrow = np.ascontiguousarray(wide, dtype=word)
    assert narrow.dtype == word and narrow.flags.c_contiguous
    assert wide.dtype == np.int64 and wide.flags.f_contiguous
    return (ShuffledCorpus(values=wide, q=top + 1),
            ShuffledCorpus(values=narrow, q=top + 1))


def outcome(solve, corpus):
    """The solver's result, or the type and message of what it raised."""
    try:
        return solve(corpus)
    except NotIdentifiableError as exc:
        return type(exc), str(exc)


def stats_and_counts(values):
    """Each row's size and middle entry, and the middle's count as the
    M-block outlier repair takes it."""
    sizes, middle = row_stats(values)
    return sizes, middle, np.count_nonzero(values == middle[:, None], axis=1)


def assert_same_rows(wide, narrow):
    wide_sizes, wide_modes, wide_counts = stats_and_counts(wide.values)
    narrow_sizes, narrow_modes, narrow_counts = stats_and_counts(narrow.values)
    assert narrow_modes.dtype == narrow.values.dtype
    assert np.array_equal(wide_sizes, narrow_sizes)
    assert np.array_equal(wide_modes, narrow_modes)
    assert np.array_equal(wide_counts, narrow_counts)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), word=st.sampled_from(WORDS), q=st.integers(2, 5),
       lengths=st.tuples(st.integers(1, 7), st.integers(1, 7)),
       n=st.integers(2, 24), lam=st.floats(0, 0.6), nu=st.floats(0.1, 0.9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_two_block_invariant_to_word_dtype(data, word, q, lengths, n, lam, nu, seed):
    params = ModelParams(q=q, blocks=BlockStructure(lengths), num_messages=n,
                         noise_fraction=lam, shuffle=nu, seed=seed)
    wide, narrow = two_layouts(data, generate(params)[0], word)
    assert_same_rows(wide, narrow)
    swapped, narrow_swapped = (outcome(estimate_swapped_columns, c) for c in (wide, narrow))
    if isinstance(swapped, tuple):
        assert isinstance(narrow_swapped, tuple) and narrow_swapped == swapped
        return
    assert np.array_equal(narrow_swapped, swapped)
    assert np.array_equal(estimate_conserved_rows(wide, swapped),
                          estimate_conserved_rows(narrow, swapped))
    a, b = unshuffle2(wide), unshuffle2(narrow)
    assert (a.first_block_len, a.score) == (b.first_block_len, b.score)
    assert np.array_equal(a.swapped, b.swapped)
    assert np.array_equal(a.conserved, b.conserved)
    assert b.aligned.values.dtype == word
    assert np.array_equal(a.aligned.values, b.aligned.values)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), word=st.sampled_from(WORDS), q=st.integers(2, 8),
       lengths=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
       counts=st.lists(st.integers(0, 4), min_size=6, max_size=6),
       lam=st.floats(0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_m_block_invariant_to_word_dtype(data, word, q, lengths, counts, lam, seed):
    if sum(counts) == 0:
        counts[0] = 1
    shuffle = dict(zip(all_perms(3), counts))
    params = ModelParams(q=q, blocks=BlockStructure(lengths), num_messages=sum(counts),
                         noise_fraction=lam, shuffle=shuffle, restricted_prefix=True,
                         seed=seed)
    corpus = generate(params)[0]
    wide, narrow = two_layouts(data, corpus, word)
    assert_same_rows(wide, narrow)
    a, b = unshuffle_m(wide), unshuffle_m(narrow)
    assert (a.block_count, a.lengths, a.trace, a.success, a.failure_reason) == \
        (b.block_count, b.lengths, b.trace, b.success, b.failure_reason)
    assert np.array_equal(a.column_perms, b.column_perms)
    assert b.aligned.values.dtype == word
    assert np.array_equal(a.aligned.values, b.aligned.values)
    # un-renamed, and as a loaded file declares it: 1-byte words, q=256
    c = unshuffle_m(corpus)
    d = unshuffle_m(ShuffledCorpus(values=corpus.values.astype(np.uint8), q=256))
    assert (c.lengths, c.success, c.failure_reason) == (d.lengths, d.success, d.failure_reason)
    assert np.array_equal(c.column_perms, d.column_perms)


@pytest.mark.parametrize("word", WORDS)
def test_majority_rows_ties_at_the_top_of_the_range(word):
    # [DERIVED] each row holds two values twice each; the smaller one is
    # the row's middle, also when the larger is the dtype's maximum.
    top = int(np.iinfo(word).max)
    rows = np.array([[top, 0, top, 0], [top, top - 1, top - 1, top]])
    sizes, modes, counts = stats_and_counts(rows.astype(word))
    assert sizes.tolist() == [2, 2]
    assert modes.tolist() == [0, top - 1] and counts.tolist() == [2, 2]
