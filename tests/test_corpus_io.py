"""Corpus serialization, truth sidecars, and reports."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unshuffle.corpus_io import (
    CorpusSpec,
    _distinct_rows,
    EmptyCorpusError,
    MalformedCorpusError,
    Report,
    load_corpus,
    load_truth,
    word_bytes_for,
    write_corpus,
    write_report,
    write_truth,
)
from unshuffle.model import GroundTruth, ModelParams, ShuffledCorpus, generate
from unshuffle.perms import BlockStructure, all_perms, to_one_line


def same_corpus(a, b):
    return a.q == b.q and np.array_equal(a.values, b.values)


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        CorpusSpec(source=tmp_path / "x", record_len=0)
    with pytest.raises(ValueError):
        CorpusSpec(source=tmp_path / "x", record_len=4, word_bytes=3)
    spec = CorpusSpec(source=tmp_path / "x", record_len=4, word_bytes=2)
    assert spec.q == 65536
    assert spec.record_bytes == 8


def test_single_file_byte_layout(tmp_path):
    # [DERIVED] 3 records of 4 bytes: columns are records, rows positions.
    path = tmp_path / "c.bin"
    path.write_bytes(bytes([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]))
    corpus = load_corpus(CorpusSpec(source=path, record_len=4))
    assert corpus.q == 256
    assert corpus.values.shape == (4, 3)
    assert corpus.values[:, 0].tolist() == [1, 2, 3, 4]
    assert corpus.values[:, 2].tolist() == [9, 10, 11, 12]


def test_two_byte_words_little_endian(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(bytes([1, 0, 0, 1, 2, 0, 0, 2]))
    corpus = load_corpus(CorpusSpec(source=path, record_len=2, word_bytes=2))
    assert corpus.q == 65536
    assert corpus.values.shape == (2, 2)
    assert corpus.values[:, 0].tolist() == [1, 256]
    assert corpus.values[:, 1].tolist() == [2, 512]


def test_directory_layout_sorted(tmp_path):
    d = tmp_path / "records"
    d.mkdir()
    (d / "b.bin").write_bytes(bytes([4, 5, 6]))
    (d / "a.bin").write_bytes(bytes([1, 2, 3]))
    corpus = load_corpus(CorpusSpec(source=d, record_len=3))
    assert corpus.values[:, 0].tolist() == [1, 2, 3]
    assert corpus.values[:, 1].tolist() == [4, 5, 6]


@pytest.mark.parametrize("word_bytes,dtype", [(1, np.uint8), (2, np.uint16),
                                              (4, np.uint32)])
@pytest.mark.parametrize("layout", ["file", "directory"])
def test_loaded_corpus_is_row_major_in_its_word_dtype(tmp_path, word_bytes, dtype,
                                                      layout):
    # The (N, L) record matrix ``values.T`` is row-major, as the file stores
    # it: a load makes no transposing copy, and its result stays writable.
    top = 256 ** word_bytes - 1
    records = np.array([[top, 0, 1, top - 1], [5, top, 7, 0], [0, 0, top, 9]],
                       dtype=f"<u{word_bytes}")
    if layout == "file":
        source = tmp_path / "c.bin"
        source.write_bytes(records.tobytes())
    else:
        source = tmp_path / "records"
        source.mkdir()
        for i, record in enumerate(records):
            (source / f"r{i}.bin").write_bytes(record.tobytes())
    corpus = load_corpus(CorpusSpec(source=source, record_len=4,
                                    word_bytes=word_bytes))
    assert corpus.values.dtype == dtype
    assert corpus.values.T.flags.c_contiguous and corpus.values.flags.writeable
    assert corpus.values.shape == (4, 3)
    assert np.array_equal(corpus.values, records.T)


def test_malformed_and_empty(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes([1, 2, 3]))
    with pytest.raises(MalformedCorpusError):
        load_corpus(CorpusSpec(source=path, record_len=2))
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(EmptyCorpusError):
        load_corpus(CorpusSpec(source=empty, record_len=2))
    d = tmp_path / "nodir"
    d.mkdir()
    with pytest.raises(EmptyCorpusError):
        load_corpus(CorpusSpec(source=d, record_len=2))
    multi = tmp_path / "recs"
    multi.mkdir()
    (multi / "r.bin").write_bytes(bytes([1, 2, 3, 4]))
    with pytest.raises(MalformedCorpusError):
        load_corpus(CorpusSpec(source=multi, record_len=2))


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    corpus = ShuffledCorpus(values=rng.integers(0, 256, size=(7, 5)), q=256)
    spec = CorpusSpec(source=tmp_path / "c.bin", record_len=7)
    write_corpus(corpus, spec)
    assert same_corpus(load_corpus(spec), corpus)


def test_round_trip_wide_alphabet(tmp_path):
    rng = np.random.default_rng(1)
    corpus = ShuffledCorpus(values=rng.integers(0, 70_000, size=(3, 4)), q=70_000)
    spec = CorpusSpec(source=tmp_path / "c.bin", record_len=3,
                      word_bytes=word_bytes_for(70_000))
    write_corpus(corpus, spec)
    loaded = load_corpus(spec)
    assert np.array_equal(loaded.values, corpus.values)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), word_bytes=st.sampled_from([1, 2, 4]),
       rows=st.integers(1, 9), cols=st.integers(1, 9))
def test_corpus_round_trip_property(data, word_bytes, rows, cols):
    q = 256 ** word_bytes
    values = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=rows * cols,
                                         max_size=rows * cols)),
                      dtype=np.int64).reshape(rows, cols)
    corpus = ShuffledCorpus(values=values, q=q)
    with tempfile.TemporaryDirectory() as tmp:
        spec = CorpusSpec(source=Path(tmp) / "c.bin", record_len=rows,
                          word_bytes=word_bytes)
        write_corpus(corpus, spec)
        assert same_corpus(load_corpus(spec), corpus)


def test_write_rejects_oversized_alphabet(tmp_path):
    corpus = ShuffledCorpus(values=np.array([[300]]), q=512)
    with pytest.raises(ValueError):
        write_corpus(corpus, CorpusSpec(source=tmp_path / "c.bin", record_len=1))


def test_word_bytes_for():
    assert word_bytes_for(2) == 1
    assert word_bytes_for(256) == 1
    assert word_bytes_for(257) == 2
    assert word_bytes_for(65537) == 4
    with pytest.raises(ValueError):
        word_bytes_for(2 ** 33)


def test_truth_round_trip(tmp_path):
    params = ModelParams(q=5, blocks=BlockStructure((2, 3)), num_messages=4,
                         noise_fraction=0.4, shuffle=0.5, seed=13)
    _, truth = generate(params)
    path = tmp_path / "truth.json"
    write_truth(truth, 5, path)
    loaded, q = load_truth(path)
    assert q == 5
    assert np.array_equal(loaded.template, truth.template)
    assert np.array_equal(loaded.noise_loci, truth.noise_loci)
    assert loaded.sigmas == truth.sigmas
    assert np.array_equal(loaded.perm_index, truth.perm_index)
    assert loaded.blocks == truth.blocks
    # sidecar is 1-based on disk
    doc = json.loads(path.read_text())
    assert min(min(p) for p in doc["column_perms"]) == 1
    assert all(l >= 1 for l in doc["noise_loci"])


@pytest.mark.parametrize("entry", [True, 1.0])
def test_truth_rejects_integer_valued_permutation_entries(tmp_path, entry):
    # A JSON true or 1.0 equals the integer 1, so it must be caught even in
    # the last row, where an equal row of integers has been seen before.
    params = ModelParams(q=5, blocks=BlockStructure((2, 3)), num_messages=6,
                         noise_fraction=0.4, shuffle=0.5, seed=13)
    path = tmp_path / "truth.json"
    write_truth(generate(params)[1], 5, path)
    doc = json.loads(path.read_text())
    rows = doc["column_perms"]
    assert rows.count(rows[-1]) > 1
    rows[-1] = [entry if value == 1 else value for value in rows[-1]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed truth sidecar"):
        load_truth(path)


def test_report_round_trip(tmp_path):
    report = Report(command="unshuffle", params={"q": 3},
                    result={"lengths": [2, 3]}, diagnostics={"score": 1},
                    success=True, seed=7)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert Report(**json.loads(path.read_text())) == report


# Leaves json.dumps writes in more than one way or that escape: ints past
# int64, bools beside ints, nan, infinities and -0.0, None, control and
# non-ASCII characters, quotes and backslashes.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 63, 2 ** 70)
               | st.floats() | st.sampled_from([float("nan"), float("inf"),
                                                float("-inf"), -0.0])
               | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x7f", "é",
                                              "\u2028", "\U0001f600", "\ud800"]))
# A list of ints with one bool or one float inside is not a plain int list.
MIXED_INT_LISTS = st.builds(lambda ints, odd, at: ints[:at] + [odd] + ints[at:],
                            st.lists(st.integers(), max_size=5),
                            st.booleans() | st.floats(), st.integers(0, 5))
JSON_VALUES = st.recursive(
    JSON_LEAVES | st.lists(st.integers(), max_size=6) | MIXED_INT_LISTS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
JSON_OBJECTS = st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4)


@settings(max_examples=100, deadline=None)
@given(report=st.builds(Report, command=st.text(), params=JSON_OBJECTS,
                        result=JSON_OBJECTS, diagnostics=JSON_OBJECTS,
                        success=st.booleans(), seed=st.none() | st.integers()))
def test_report_json_matches_json_dumps(report):
    # Reports are laid out without json.dumps(indent=2), whose pure-Python
    # encoder is slow; the bytes must still be exactly what it writes.
    assert report.to_json() == json.dumps(vars(report), indent=2, sort_keys=True)


def test_report_json_rejects_numpy_leaves_and_non_string_keys():
    for leaf in (np.int64(3), [1, np.int64(2)], {"a": [np.uint8(1)]}):
        with pytest.raises(TypeError):
            Report(command="x", params={"q": leaf}, result={}).to_json()
    # json.dumps would write the key 1 as "1"; no report has such a key.
    with pytest.raises(TypeError):
        Report(command="x", params={1: 2}, result={}).to_json()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), q=st.integers(2, 2 ** 32),
       n=st.integers(0, 12))
def test_truth_sidecar_matches_json_dumps(data, m, q, n):
    # The sidecar is written without the json encoder; it must still be
    # exactly what json.dumps(doc, indent=2) produces, empty lists included.
    # It loads back as equal arrays: the distinct sigmas sorted, as the
    # generator sorts them.
    blocks = BlockStructure(data.draw(st.tuples(*[st.integers(1, 5)] * m)))
    template = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=blocks.total,
                                           max_size=blocks.total)), dtype=np.int64)
    loci = np.array(sorted(data.draw(st.sets(st.integers(0, blocks.total - 1)))),
                    dtype=np.intp)
    pool = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                              max_size=4, unique=True))
    perms = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    sigmas = tuple(sorted(set(perms)))
    perm_index = np.array([sigmas.index(p) for p in perms], dtype=np.intp)
    truth = GroundTruth(template=template, noise_loci=loci, sigmas=sigmas,
                        perm_index=perm_index, blocks=blocks)
    doc = {"q": q, "block_lengths": list(blocks.lengths),
           "template": template.tolist(), "noise_loci": (loci + 1).tolist(),
           "column_perms": [list(to_one_line(p)) for p in perms]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "truth.json"
        write_truth(truth, q, path)
        assert path.read_bytes() == json.dumps(doc, indent=2).encode()
        loaded, loaded_q = load_truth(path)
    assert loaded_q == q
    assert np.array_equal(loaded.template, template)
    assert loaded.sigmas == sigmas and loaded.blocks == blocks
    assert np.array_equal(loaded.perm_index, perm_index)
    assert np.array_equal(loaded.noise_loci, loci)
    assert loaded.perm_index.shape == (n,) and loaded.noise_loci.dtype == np.intp


@settings(max_examples=100, deadline=None)
@given(data=st.data(), width=st.integers(1, 6), n=st.integers(1, 40),
       pool_size=st.integers(1, 8))
def test_distinct_rows_matches_np_unique(data, width, n, pool_size):
    # Rows drawn from a small pool repeat; a single row and all-equal rows
    # are included, and values span the int64 range.
    value = st.integers(-(2 ** 63), 2 ** 63 - 1) | st.integers(-2, 2)
    pool = data.draw(st.lists(st.lists(value, min_size=width, max_size=width),
                              min_size=pool_size, max_size=pool_size))
    rows = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    dtype=np.int64)
    distinct, inverse = _distinct_rows(rows)
    expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, expected)
    assert inverse.dtype == np.intp and np.array_equal(inverse, expected_inverse)
    assert np.array_equal(distinct[inverse], rows)
