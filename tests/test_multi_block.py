"""M-block unshuffling: alignment, boundary detection, and full recovery."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_row_stats_match_unique_loop,
    column_sigmas,
    headline_params,
    perm_counts_arg,
)
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unshuffle import multi_block, partitions
from unshuffle.cli import cli_main
from unshuffle.corpus_io import CorpusSpec, load_corpus, write_corpus
from unshuffle.model import (
    HEADLINE_LENGTHS,
    HEADLINE_MULT,
    GroundTruth,
    ModelParams,
    ShuffledCorpus,
    generate,
    headline_counts,
    make_rng,
)
from unshuffle.multi_block import (
    MUnshuffleResult,
    _alphabet,
    detect_block_boundary,
    lex_best_shifts,
    unshuffle_m,
    weighted_shift_align,
)
from unshuffle.partitions import row_stats
from unshuffle.perms import (
    BlockStructure,
    all_perms,
    apply_perm,
    coherent_block_permutation,
    compose,
    invert,
    is_perm,
)
from unshuffle.scoring import m_block_recovery


def all_cbp_corpus(lengths, q, template=None):
    blocks = BlockStructure(lengths)
    if template is None:
        template = np.arange(blocks.total, dtype=np.int64)
    cols = [apply_perm(coherent_block_permutation(s, blocks), template)
            for s in all_perms(blocks.block_count)]
    return ShuffledCorpus(values=np.column_stack(cols), q=q), blocks, template


def test_weighted_alignment_prefers_leading_rows():
    # [DERIVED] rolling the second column by 1 brings (5, 6) under the
    # reference's leading (5, 6); no other shift matches row 0.
    ref = np.array([5, 6, 1, 2])
    col = np.array([9, 5, 6, 7])
    c = ShuffledCorpus(values=np.column_stack([ref, col]), q=10)
    shifts = weighted_shift_align(c)
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


def assert_best_shifts_match_oracle(ref, cols, rows):
    expected = [best_shift_oracle(match_matrix_oracle(ref, cols[:, k]))
                for k in range(cols.shape[1])]
    assert lex_best_shifts(ref, cols).tolist() == expected
    # the outlier repair's form: only the trusted rows count, in order
    expected = [best_shift_oracle(match_matrix_oracle(ref, cols[:, k])[rows])
                for k in range(cols.shape[1])]
    assert lex_best_shifts(ref, cols, rows).tolist() == expected


@settings(deadline=None, max_examples=300)
@given(shift_cases())
def test_lex_best_shifts_matches_weighted_oracle(case):
    assert_best_shifts_match_oracle(*case)


@settings(deadline=None, max_examples=200)
@given(shift_cases(), st.integers(1, 3))
def test_lex_best_shifts_matches_the_oracle_across_column_blocks(case, per_block):
    # The search runs one block of about BLOCK_ENTRIES entries of columns at
    # a time; a budget of 1-3 columns puts the drawn columns in several blocks.
    ref, cols, rows = case
    with mock.patch.object(multi_block, "BLOCK_ENTRIES", len(ref) * per_block):
        assert_best_shifts_match_oracle(ref, cols, rows)


def test_shift_search_memory_stays_within_a_block():
    # A q=3 record-major corpus keeps about a third of each column's shifts
    # after the first row.  The candidates are listed one block of columns
    # at a time, so the search holds no (L, N) array of any kind.
    values = np.random.default_rng(3).integers(0, 3, (4000, 1000), dtype=np.uint8).T
    tracemalloc.start()
    try:
        lex_best_shifts(values[:, 0], values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.size


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([np.uint8, np.uint16, np.int64]), st.sampled_from([2, 5]),
       st.data())
def test_row_stats_matches_unique_loop(dtype, top, data):
    # The sizes and middles the outlier repair reads.  1-byte rows are sorted
    # as int16 inside the kernel; a 3-symbol alphabet makes majorities and
    # ties common.
    assert_row_stats_match_unique_loop(data.draw(arrays(
        dtype, st.tuples(st.integers(1, 12), st.integers(1, 20)),
        elements=st.integers(0, top))))


def test_rounds_whose_repair_moves_nothing_sort_once(monkeypatch):
    # In this noiseless corpus the outlier repair moves no column, so each
    # round's partition sizes come from the repair's one sort.  Every row
    # sort of the library is a ``row_stats`` call (test_exports guards it).
    calls = []
    monkeypatch.setattr(multi_block, "row_stats",
                        lambda values: calls.append(1) or partitions.row_stats(values))
    result = unshuffle_m(all_cbp_corpus((2, 3, 4), q=17)[0])
    assert result.success
    assert len(calls) == len(result.trace)


def test_alphabet_is_counted_in_row_blocks():
    # At q=4096 the symbols are bincounted about 2**18 entries at a time, so
    # the count's peak memory stays below an int64 copy of the corpus (one
    # bincount of the whole corpus makes that copy).
    values = np.random.default_rng(5).integers(0, 4000, (820, 4000)).astype(np.uint16)
    values[7, 7] = 4095
    tracemalloc.start()
    try:
        counted = _alphabet(ShuffledCorpus(values=values, q=4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == (len(np.unique(values)), 4096)
    assert peak < values.size * 8
    assert _alphabet(ShuffledCorpus(values=np.zeros((3, 0), dtype=np.uint16), q=5)) == (0, 0)


def test_boundary_detection_by_hand():
    # rows: conserved, conserved, structured (2 parts), noise (many parts)
    values = np.array([
        [3, 3, 3, 3, 3, 3, 3, 3],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [4, 4, 4, 4, 7, 7, 7, 7],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ])
    assert detect_block_boundary(row_stats(values)[0], 2) == 2


@settings(deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 10), st.integers(1, 16)),
              elements=st.integers(0, 7)),
       st.integers(0, 16))
def test_boundary_matches_row_loop(values, threshold):
    expected = len(values)
    for row in range(len(values)):
        if 2 <= len(np.unique(values[row])) <= threshold:
            expected = row
            break
    assert detect_block_boundary(row_stats(values)[0], threshold) == expected


def test_boundary_no_structured_row():
    values = np.tile(np.array([[2], [5], [1]]), (1, 6))
    assert detect_block_boundary(row_stats(values)[0], 2) == 3


def test_noiseless_exhaustive_tiny():
    c, blocks, template = all_cbp_corpus((2, 3, 4), q=17)
    result = unshuffle_m(c)
    assert result.success
    assert sorted(result.lengths) == [2, 3, 4]
    assert np.all(result.aligned.values == result.aligned.values[:, :1])
    assert sorted(result.aligned.values[:, 0].tolist()) == sorted(template.tolist())


def test_noiseless_q4_keeps_two_valued_rows_structured():
    # [DERIVED] at q=4 a noise row of 6 columns shows E < 4 values, so
    # E/2 < 2; the threshold stays at 2 and the two-valued row 2 of the
    # aligned corpus still marks the boundary between blocks 2 and 3.
    c, _, template = all_cbp_corpus((1, 1, 2), q=4, template=np.arange(4))
    result = unshuffle_m(c)
    assert result.success
    assert result.lengths == (1, 1, 2)
    assert sorted(result.aligned.values[:, 0].tolist()) == template.tolist()


def test_degenerate_corpora():
    one_symbol = unshuffle_m(ShuffledCorpus(values=np.zeros((3, 4), dtype=np.int64), q=1))
    assert one_symbol.success and one_symbol.lengths == (3,)
    with pytest.raises(ValueError, match="empty corpus"):
        unshuffle_m(ShuffledCorpus(values=np.zeros((3, 0), dtype=np.int64), q=5))


def round_one_failure_corpus():
    """Four records (0,1,2) and four (3,3,3): after round one, row 0 still
    holds two values, so no leading row is conserved."""
    values = np.repeat(np.array([[0, 3], [1, 3], [2, 3]]), 4, axis=1)
    return ShuffledCorpus(values=values, q=4)


def test_round_one_failure_is_a_result():
    result = unshuffle_m(round_one_failure_corpus())
    assert not result.success
    assert result.block_count == 0 and result.lengths == ()
    assert result.failure_reason.startswith("no conserved leading row at row 0")
    assert [t.boundary for t in result.trace] == [0]


def test_round_one_failure_writes_its_report(tmp_path, capsys):
    corpus = tmp_path / "corpus.bin"
    write_corpus(round_one_failure_corpus(), CorpusSpec(source=corpus, record_len=3))
    report, aligned = tmp_path / "report.json", tmp_path / "aligned.bin"
    capsys.readouterr()
    assert cli_main(["unshuffle", str(corpus), "--record-len", "3",
                     "--out", str(aligned), "--json-report", str(report)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "unshuffle: FAILED"
    doc = json.loads(report.read_text())
    assert doc["success"] is False and doc["result"]["lengths"] == []
    assert doc["result"]["failure_reason"] == \
        "no conserved leading row at row 0; 3 rows unresolved"
    assert load_corpus(CorpusSpec(source=aligned, record_len=3)).values.shape == (3, 8)


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


def m_block_recovery_oracle(result, truth):
    """The tuple check that the gather in ``m_block_recovery`` replaced: one
    compose per column, the frames collected in a set."""
    if not result.success:
        return False
    if result.block_count != truth.blocks.block_count:
        return False
    if sorted(result.lengths) != sorted(truth.blocks.lengths):
        return False
    frames = {compose(coherent_block_permutation(sigma, truth.blocks), p)
              for sigma, p in zip(column_sigmas(truth), result.column_perms)}
    return len(frames) == 1


@st.composite
def recovery_cases(draw):
    """A ground truth and a result whose columns all land in one common
    frame; then possibly one column moved to a random permutation, the
    lengths replaced by a random composition of L, or a failed run.
    Returns (result, truth, untouched)."""
    m = draw(st.integers(1, 4))
    blocks = BlockStructure(draw(st.tuples(*[st.integers(1, 5)] * m)))
    total = blocks.total
    n_cols = draw(st.integers(1, 8))
    sigmas = tuple(draw(st.sampled_from(list(all_perms(m)))) for _ in range(n_cols))
    frame = draw(st.permutations(range(total)))
    perms = [compose(invert(coherent_block_permutation(s, blocks)), frame)
             for s in sigmas]
    lengths = tuple(draw(st.permutations(blocks.lengths)))
    off_frame, other_lengths, failed = draw(st.tuples(*[st.booleans()] * 3))
    if off_frame:
        perms[draw(st.integers(0, n_cols - 1))] = tuple(
            draw(st.permutations(range(total))))
    if other_lengths:
        inner = draw(st.sets(st.integers(1, total - 1))) if total > 1 else ()
        cuts = [0, *sorted(inner), total]
        lengths = tuple(b - a for a, b in zip(cuts, cuts[1:]))
    result = MUnshuffleResult(
        lengths=lengths, column_perms=np.array(perms),
        aligned=ShuffledCorpus(values=np.zeros((total, n_cols), dtype=np.int64), q=2),
        trace=(), success=not failed)
    distinct = tuple(sorted(set(sigmas)))
    truth = GroundTruth(template=np.zeros(total, dtype=np.int64),
                        noise_loci=np.zeros(0, dtype=np.intp), sigmas=distinct,
                        perm_index=np.array([distinct.index(s) for s in sigmas],
                                            dtype=np.intp),
                        blocks=blocks)
    return result, truth, not (off_frame or other_lengths or failed)


@settings(deadline=None, max_examples=300)
@given(recovery_cases())
def test_m_block_recovery_matches_compose_oracle(case):
    result, truth, untouched = case
    expected = m_block_recovery_oracle(result, truth)
    assert m_block_recovery(result, truth) is expected
    if untouched:
        assert expected


# The noise-row threshold.  At q=256 a noise row of N >= 1200 columns shows
# fewer distinct values than ceil(N/4); a threshold of ceil(N/4) alone would
# count every noise row as structured, and the headline corpora would stop
# recovering.
@pytest.mark.parametrize("factor", [15, 25])   # N = 1200, 2000
def test_headline_recovery_does_not_degrade_with_n(factor):
    hits = 0
    for seed in range(10):
        corpus, truth = generate(headline_params(256, seed, factor))
        hits += m_block_recovery(unshuffle_m(corpus), truth)
    assert hits >= 9, f"only {hits}/10 perfect reconstructions"


@pytest.mark.parametrize("loaded", [False, True])
def test_q64_recovery_at_n400(tmp_path, loaded):
    # A loaded corpus declares q = 256**word_bytes.  The threshold takes its
    # alphabet from the largest symbol shown, so a q=64 corpus in 1-byte
    # words is not given the q=256 threshold (100 at N=400), above the 64
    # values any noise row can show.
    hits = 0
    for seed in range(5):
        corpus, truth = generate(headline_params(64, seed, 5))
        if loaded:
            spec = CorpusSpec(source=tmp_path / "corpus.bin", record_len=corpus.n_rows)
            write_corpus(corpus, spec)
            corpus = load_corpus(spec)
        hits += m_block_recovery(unshuffle_m(corpus), truth)
    assert hits >= 4, f"only {hits}/5 perfect reconstructions"


def test_sparse_palette_keeps_its_successes():
    # A q=64 corpus renamed to 64 codes spread over 2-byte words and
    # declared q=65536, as a loaded file declares it.  Its noise rows show
    # about E(64, 80) = 45 values, far below E(65536, 80); the guard takes
    # the alphabet from the symbols the corpus shows and keeps each success.
    palette = np.sort(make_rng(64).choice(2 ** 16, 64, replace=False)).astype(np.uint16)
    for seed in range(1, 5):
        corpus, truth = generate(headline_params(64, seed, 1))
        result = unshuffle_m(ShuffledCorpus(values=palette[corpus.values], q=2 ** 16))
        assert result.success, result.failure_reason
        assert m_block_recovery(result, truth)


# Metamorphic relations: the solver is blind to the symbols' names and to
# the order of the records, so a kernel rewrite that starts to depend on
# either breaks one of them on some headline corpus.
headline_corpora = st.builds(lambda q, seed, factor: generate(headline_params(q, seed, factor))[0],
                             st.sampled_from([64, 256]), st.integers(0, 2 ** 16),
                             st.sampled_from([1, 5]))  # N = 80, 400


def assert_same_verdict(result, base):
    assert result.lengths == base.lengths
    assert (result.success, result.failure_reason) == (base.success, base.failure_reason)
    assert result.column_perms.dtype == base.column_perms.dtype


@settings(deadline=None, max_examples=40)
@given(headline_corpora, st.integers(0, 2 ** 32 - 1))
def test_relabeling_the_symbols_changes_no_shift(corpus, seed):
    # The relabeling fixes the largest symbol, so the threshold's span stays.
    span = int(corpus.values.max()) + 1
    names = np.append(make_rng(seed).permutation(span - 1), span - 1).astype(corpus.values.dtype)
    base = unshuffle_m(corpus)
    renamed = unshuffle_m(ShuffledCorpus(values=names[corpus.values], q=corpus.q))
    assert_same_verdict(renamed, base)
    assert renamed.trace == base.trace
    assert np.array_equal(renamed.column_perms, base.column_perms)
    assert np.array_equal(renamed.aligned.values, names[base.aligned.values])


@settings(deadline=None, max_examples=40)
@given(headline_corpora, st.integers(0, 2 ** 32 - 1))
def test_reordering_the_records_permutes_the_shifts(corpus, seed):
    # Record 0 is the reference column, so it stays first.
    order = np.append(0, 1 + make_rng(seed).permutation(corpus.n_cols - 1))
    base = unshuffle_m(corpus)
    moved = unshuffle_m(ShuffledCorpus(values=corpus.values[:, order], q=corpus.q))
    assert_same_verdict(moved, base)
    assert [(t.start_row, t.boundary, t.shifts) for t in moved.trace] \
        == [(t.start_row, t.boundary, tuple(np.array(t.shifts)[order].tolist()))
            for t in base.trace]
    assert np.array_equal(moved.column_perms, base.column_perms[order])
    assert np.array_equal(moved.aligned.values, base.aligned.values[:, order])


def solve_headline_job(tmp_path, seed, q, factor):
    """Generate and solve one of the benchmark's headline jobs through the
    CLI; returns the exit code and the ``--json-report``."""
    corpus, report = tmp_path / "corpus.bin", tmp_path / "report.json"
    assert cli_main(["--seed", str(seed), "gen", "--q", str(q),
                     "--lengths", ",".join(map(str, HEADLINE_LENGTHS)),
                     "--n", str(sum(HEADLINE_MULT) * factor), "--lambda", "0.5",
                     "--perm-counts",
                     perm_counts_arg(headline_counts(np.random.default_rng((seed, 0)), factor)),
                     "--restricted-prefix", "--out", str(corpus)]) == 0
    code = cli_main(["unshuffle", str(corpus), "--record-len", str(sum(HEADLINE_LENGTHS)),
                     "--truth", f"{corpus}.truth.json", "--json-report", str(report)])
    return code, json.loads(report.read_text())


def test_no_success_that_the_truth_contradicts(tmp_path):
    # The benchmark's job seed 8000020 (N=1200): blocks 2 and 3 start with
    # the same template value, and a run that aligns the corpus wrongly must
    # not report success.
    code, doc = solve_headline_job(tmp_path, 8000020, 256, 15)
    assert not doc["success"] or doc["diagnostics"]["recovered"]
    assert doc["success"] == (code == 0)


def test_written_reports_are_laid_out_as_json_dumps(tmp_path):
    # Reports are written without json.dumps(indent=2).  The unshuffle report
    # of an N=1200 headline job (a trace of N shifts per round) and the
    # analyze report of its corpus read back and dump to the same text.
    code, doc = solve_headline_job(tmp_path, 1000001, 256, 15)
    assert code == 0 and len(doc["diagnostics"]["trace"][0]["shifts"]) == 1200
    analyze = tmp_path / "analyze.json"
    assert cli_main(["analyze", str(tmp_path / "corpus.bin"), "--record-len",
                     str(sum(HEADLINE_LENGTHS)), "--json-report", str(analyze)]) == 0
    for path in (tmp_path / "report.json", analyze):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def test_second_repair_pass_recovers(tmp_path):
    # At q=64, N=80, job seed 1000030, a column is still misaligned after
    # the first outlier-repair pass; with one pass per round the solver
    # returns lengths (3, 8, 12, 12, 16, 10, 3, 18) with success=True.
    code, doc = solve_headline_job(tmp_path, 1000030, 64, 1)
    assert code == 0 and doc["diagnostics"]["recovered"]
    assert sorted(doc["result"]["lengths"]) == sorted(HEADLINE_LENGTHS)


def test_short_record_false_successes_do_not_grow():
    # Six blocks of length 3, q=256, lambda=0.3, N=80 (the headline
    # multiplicities over one seeded pool), seeds 0-199: 165 runs recover,
    # 27 fail, and 8 report success with a wrong alignment (6 of them with
    # the right lengths).  The solver cannot yet refuse these; their count
    # must not grow.
    counts = headline_counts(make_rng(10_000))
    false_successes = 0
    for seed in range(200):
        params = ModelParams(q=256, blocks=BlockStructure((3,) * 6), num_messages=80,
                             noise_fraction=0.3, shuffle=counts,
                             restricted_prefix=True, seed=seed)
        corpus, truth = generate(params)
        result = unshuffle_m(corpus)
        false_successes += result.success and not m_block_recovery(result, truth)
    assert false_successes <= 8


@pytest.mark.parametrize("lengths", [(1, 1, 1, 1), (1, 2, 1, 2)])
def test_noiseless_short_records_keep_their_threshold(lengths):
    # Every arrangement once (N=24), q=2**16: the corpus holds only 4 or 6
    # distinct symbols.  The threshold's alphabet is the largest symbol + 1,
    # not the number of symbols present: E(present, 24) / 2 would put the
    # threshold at 2, and rows of more than two values that end a block
    # would pass for noise.
    counts = {s: 1 for s in all_perms(len(lengths))}
    missed = []
    for seed in range(20):
        params = ModelParams(q=2 ** 16, blocks=BlockStructure(lengths),
                             num_messages=len(counts), noise_fraction=0.0,
                             shuffle=counts, restricted_prefix=True, seed=seed)
        corpus, truth = generate(params)
        if not m_block_recovery(unshuffle_m(corpus), truth):
            missed.append(seed)
    assert missed == []
