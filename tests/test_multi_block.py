"""M-block unshuffling: alignment, boundary detection, and full recovery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unshuffle.model import ModelParams, ShuffledCorpus, generate
from unshuffle.multi_block import (
    AlignConfig,
    InconsistentResultError,
    _modal_rows,
    detect_block_boundary,
    lex_best_shifts,
    recover_block_structure,
    unshuffle_m,
    weighted_shift_align,
)
from unshuffle.perms import (
    BlockStructure,
    all_perms,
    apply_perm,
    coherent_block_permutation,
    compose,
    is_perm,
)
from unshuffle.scoring import aligned_matches_template, m_block_recovery


def all_cbp_corpus(lengths, q, template=None):
    blocks = BlockStructure(lengths)
    if template is None:
        template = np.arange(blocks.total, dtype=np.int64)
    cols = [apply_perm(coherent_block_permutation(s, blocks), template)
            for s in all_perms(blocks.block_count)]
    return ShuffledCorpus(values=np.column_stack(cols), q=q), blocks, template


def test_config_validation():
    with pytest.raises(ValueError):
        AlignConfig(reference_column=-1)
    for part_max in (0, -3):
        with pytest.raises(ValueError):
            AlignConfig(structured_part_max=part_max)
    assert AlignConfig().part_threshold(80) == 20
    assert AlignConfig(structured_part_max=7).part_threshold(80) == 7


def test_weighted_alignment_prefers_leading_rows():
    # [DERIVED] rolling the second column by 1 brings (5, 6) under the
    # reference's leading (5, 6); no other shift matches row 0.
    ref = np.array([5, 6, 1, 2])
    col = np.array([9, 5, 6, 7])
    c = ShuffledCorpus(values=np.column_stack([ref, col]), q=10)
    shifts = weighted_shift_align(c, 0)
    assert shifts[0] == 0
    assert np.array_equal(np.roll(col, -shifts[1])[:2], ref[:2])


def match_matrix_oracle(ref, col):
    """matches[l, s] == (col[(l+s) mod L] == ref[l])."""
    size = len(ref)
    idx = (np.arange(size)[:, None] + np.arange(size)[None, :]) % size
    return col[idx] == ref[:, None]


def best_shift_oracle(matches):
    """Shift with the maximal weighted match score at weight base 2, smallest
    shift on ties: the match columns compared as packed bit strings, row 0
    most significant."""
    packed = np.packbits(matches, axis=0)
    keys = [packed[:, s].tobytes() for s in range(matches.shape[1])]
    return int(max(range(len(keys)), key=lambda s: (keys[s], -s)))


@st.composite
def shift_cases(draw):
    """A reference column and columns over a small alphabet (many ties),
    plus an ascending row subset."""
    size = draw(st.integers(1, 40))
    q = draw(st.integers(2, 8))
    n_cols = draw(st.integers(1, 6))
    values = draw(arrays(np.int64, (size, n_cols + 1), elements=st.integers(0, q - 1)))
    rows = sorted(draw(st.sets(st.integers(0, size - 1))))
    return values[:, 0], values[:, 1:], np.array(rows, dtype=np.intp)


@settings(deadline=None, max_examples=300)
@given(shift_cases())
def test_lex_best_shifts_matches_weighted_oracle(case):
    ref, cols, rows = case
    expected = [best_shift_oracle(match_matrix_oracle(ref, cols[:, k]))
                for k in range(cols.shape[1])]
    assert lex_best_shifts(ref, cols).tolist() == expected
    # the outlier repair's form: only the trusted rows count, in order
    expected = [best_shift_oracle(match_matrix_oracle(ref, cols[:, k])[rows])
                for k in range(cols.shape[1])]
    assert lex_best_shifts(ref, cols, rows).tolist() == expected


@settings(deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 20)),
              elements=st.integers(0, 5)))
def test_modal_rows_matches_unique_loop(values):
    modes, counts = _modal_rows(values)
    for row in range(len(values)):
        uniq, cnt = np.unique(values[row], return_counts=True)
        best = int(np.argmax(cnt))  # first maximum: the smallest value on ties
        assert (modes[row], counts[row]) == (uniq[best], cnt[best])


def test_boundary_detection_by_hand():
    # rows: conserved, conserved, structured (2 parts), noise (many parts)
    values = np.array([
        [3, 3, 3, 3, 3, 3, 3, 3],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [4, 4, 4, 4, 7, 7, 7, 7],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ])
    c = ShuffledCorpus(values=values, q=8)
    assert detect_block_boundary(c, AlignConfig()) == 2


@settings(deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 10), st.integers(1, 16)),
              elements=st.integers(0, 7)),
       st.sampled_from([1, 3, None]))
def test_boundary_matches_row_loop(values, part_max):
    config = AlignConfig(structured_part_max=part_max)
    threshold = config.part_threshold(values.shape[1])
    expected = len(values)
    for row in range(len(values)):
        if 2 <= len(np.unique(values[row])) <= threshold:
            expected = row
            break
    assert detect_block_boundary(ShuffledCorpus(values=values, q=8), config) == expected


def test_boundary_no_structured_row():
    values = np.tile(np.array([[2], [5], [1]]), (1, 6))
    c = ShuffledCorpus(values=values, q=6)
    assert detect_block_boundary(c, AlignConfig()) == 3


def test_noiseless_exhaustive_tiny():
    c, blocks, template = all_cbp_corpus((2, 3, 4), q=17)
    result = unshuffle_m(c)
    assert result.success
    assert sorted(result.lengths) == [2, 3, 4]
    assert np.all(result.aligned.values == result.aligned.values[:, :1])
    assert sorted(result.aligned.values[:, 0].tolist()) == sorted(template.tolist())


def test_single_block_corpus():
    params = ModelParams(q=7, blocks=BlockStructure((10,)), num_messages=5,
                         noise_fraction=0.2, shuffle={(0,): 5}, seed=3)
    corpus, truth = generate(params)
    result = unshuffle_m(corpus)
    assert result.success
    assert result.lengths == (10,)
    assert m_block_recovery(result, truth)


def test_column_perms_are_valid_and_frame_coherent():
    c, blocks, _ = all_cbp_corpus((3, 4), q=19)
    result = unshuffle_m(c)
    assert all(is_perm(p) for p in result.column_perms)
    # every recovered permutation undoes its column into one common frame
    frames = set()
    for sigma, p in zip(all_perms(2), result.column_perms):
        cbp = coherent_block_permutation(sigma, blocks)
        frames.add(compose(cbp, p))
    assert len(frames) == 1


def test_generated_recovery_with_noise():
    counts = {(0, 1, 2): 14, (1, 2, 0): 10, (2, 0, 1): 8, (0, 2, 1): 8}
    params = ModelParams(q=256, blocks=BlockStructure((5, 7, 8)),
                         num_messages=40, noise_fraction=0.3, shuffle=counts,
                         restricted_prefix=True, seed=11)
    corpus, truth = generate(params)
    result = unshuffle_m(corpus)
    assert m_block_recovery(result, truth)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_noiseless_restricted_prefix_recovers(data, m, seed):
    # Without noise, with pairwise distinct template values and every block
    # arrangement present (fewer arrangements can be cyclic rotations of
    # one another, which no cyclic alignment tells apart), the blocks and
    # every column's frame are recovered.
    lengths = data.draw(st.tuples(*[st.integers(1, 6)] * m))
    counts = {s: data.draw(st.integers(1, 3)) for s in all_perms(m)}
    params = ModelParams(q=2 ** 16, blocks=BlockStructure(lengths),
                         num_messages=sum(counts.values()), noise_fraction=0.0,
                         shuffle=counts, restricted_prefix=True, seed=seed)
    corpus, truth = generate(params)
    assume(len(set(truth.template.tolist())) == len(truth.template))
    assert m_block_recovery(unshuffle_m(corpus), truth)


def test_trace_records_rounds():
    c, _, _ = all_cbp_corpus((2, 3, 4), q=17)
    result = unshuffle_m(c)
    assert result.trace[0].start_row == 0
    assert result.trace[0].shifts[0] == 0
    as_dict = result.trace_as_dict()
    assert as_dict[0]["start_row"] == 0
    assert all(set(d) == {"start_row", "shifts", "boundary"} for d in as_dict)


def test_recover_block_structure():
    c, _, _ = all_cbp_corpus((2, 3, 4), q=17)
    result = unshuffle_m(c)
    assert recover_block_structure(result).lengths == result.lengths
    from unshuffle.multi_block import MUnshuffleResult
    broken = MUnshuffleResult(block_count=1, lengths=(3,),
                              column_perms=result.column_perms,
                              aligned=result.aligned, trace=result.trace,
                              success=False, failure_reason="x")
    with pytest.raises(InconsistentResultError):
        recover_block_structure(broken)


def test_aligned_matches_template_helper():
    params = ModelParams(q=23, blocks=BlockStructure((3, 5)), num_messages=6,
                         noise_fraction=0.0, shuffle=0.5, seed=2)
    corpus, truth = generate(params)
    result = unshuffle_m(corpus)
    assert aligned_matches_template(result, truth)
