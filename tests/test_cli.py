"""Command-line surface: round trips, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import perm_counts_arg
from hypothesis import assume, given, settings, strategies as st

from unshuffle.cli import build_parser, cli_main
from unshuffle.corpus_io import (
    WORD_DTYPES,
    CorpusSpec,
    load_corpus,
    load_truth,
    word_bytes_for,
)
from unshuffle.model import BLOCK_ENTRIES, ModelParams, generate
from unshuffle.perms import BlockStructure, all_perms
from unshuffle.probs import CHUNK_SYMBOLS, MC_EVENTS
from unshuffle.sync import SEARCH_CAP


def run(*argv):
    return cli_main([str(a) for a in argv])


def gen_two_block(tmp_path, seed=7):
    out = tmp_path / "corpus.bin"
    code = run("--seed", seed, "gen", "--q", 3, "--lengths", "40,60",
               "--n", 80, "--lambda", 0.5, "--nu", 0.3, "--out", out)
    assert code == 0
    return out


def test_gen_writes_corpus_and_truth(tmp_path):
    out = gen_two_block(tmp_path)
    corpus = load_corpus(CorpusSpec(source=out, record_len=100))
    assert corpus.values.shape == (100, 80)
    truth = json.loads((tmp_path / "corpus.bin.truth.json").read_text())
    assert truth["q"] == 3
    assert truth["block_lengths"] == [40, 60]
    assert len(truth["noise_loci"]) == 50


def test_gen_deterministic(tmp_path):
    a = gen_two_block(tmp_path / "a", seed=5)
    b = gen_two_block(tmp_path / "b", seed=5)
    assert a.read_bytes() == b.read_bytes()
    assert (a.parent / "corpus.bin.truth.json").read_text() == \
        (b.parent / "corpus.bin.truth.json").read_text()


def test_unshuffle2_round_trip(tmp_path):
    out = gen_two_block(tmp_path)
    aligned = tmp_path / "aligned.bin"
    report_path = tmp_path / "report.json"
    code = run("--seed", 7, "unshuffle2", out, "--record-len", 100,
               "--truth", tmp_path / "corpus.bin.truth.json",
               "--out", aligned, "--json-report", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["success"]
    assert report["seed"] == 7
    assert report["result"]["first_block_len"] in (40, 60)
    assert report["diagnostics"]["recovered"]
    realigned = load_corpus(CorpusSpec(source=aligned, record_len=100))
    assert realigned.values.shape == (100, 80)


def test_unshuffle_m_case(tmp_path):
    out = tmp_path / "m.bin"
    code = run("--seed", 4, "gen", "--q", 256, "--lengths", "5,7,8",
               "--n", 40, "--lambda", 0.3,
               "--perm-counts", "1,2,3=14;2,3,1=10;3,1,2=8;1,3,2=8",
               "--restricted-prefix", "--out", out)
    assert code == 0
    report_path = tmp_path / "m.json"
    code = run("unshuffle", out, "--record-len", 20,
               "--truth", tmp_path / "m.bin.truth.json",
               "--json-report", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert sorted(report["result"]["lengths"]) == [5, 7, 8]
    assert report["diagnostics"]["recovered"]


def test_analyze_writes_profile(tmp_path):
    out = gen_two_block(tmp_path)
    csv_path = tmp_path / "profile.csv"
    code = run("analyze", out, "--record-len", 100, "--out", csv_path)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "row,partition_size"
    assert len(lines) == 101


def test_verify_prob(tmp_path):
    report_path = tmp_path / "prob.json"
    code = run("--seed", 3, "verify-prob", "p_n", "--q", 3, "--lengths",
               "4,6", "--n", 20, "--lambda", 0.5, "--nu", 0.3,
               "--trials", 20000, "--json-report", report_path)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["result"]["agrees"]


@pytest.mark.parametrize("flags", [
    # no prefix restriction, two blocks: a noisy start must agree across columns
    ("--q", 2, "--lengths", "4,6", "--n", 20, "--lambda", 0.4, "--nu", 0.5),
    # distinguished prefix: the event is certain
    ("--q", 4, "--lengths", "2,3,1", "--n", 9, "--lambda", 0.5, "--distinguished-prefix",
     "--perm-counts", "1,2,3=3;2,3,1=3;3,1,2=3"),
    # no prefix restriction, three first blocks of unequal column counts
    ("--q", 3, "--lengths", "2,3,1", "--n", 9, "--lambda", 0.5,
     "--perm-counts", "1,2,3=2;2,3,1=3;3,1,2=4"),
    ("--q", 5, "--lengths", "3,4", "--n", 6, "--lambda", 0.3,
     "--perm-counts", "1,2=3;2,1=3"),
])
def test_verify_prob_prefix_partition_beyond_the_birthday_product(flags):
    # Each of these models made the first-row check fail when it compared
    # with the birthday product alone.
    assert run("--seed", 1, "verify-prob", "prefix_partition", *flags,
               "--trials", 4000) == 0


def test_sync_demo():
    assert run("--seed", 5, "sync-demo") == 0


def test_selftest_quick(capsys):
    assert run("selftest", "--quick") == 0
    assert capsys.readouterr().out.splitlines() == [
        "two-block recovery: 20/20", "partition maxima exact: True",
        "m-block recovery: 10/10", "selftest: ok"]


@pytest.mark.parametrize("flags, message", [
    ((), "alphabet size 4294967297 exceeds 4-byte words"),
    (("--word-bytes", 4), "alphabet 4294967297 does not fit 4-byte words"),
    (("--q", 300, "--word-bytes", 1), "alphabet 300 does not fit 1-byte words"),
])
def test_gen_rejects_the_word_size_before_generating(tmp_path, monkeypatch, capsys,
                                                     flags, message):
    # An alphabet the words cannot hold is refused before a corpus is drawn
    # (AssertionError is not a usage error, so a draw would escape cli_main),
    # and nothing is written.
    def no_draw(params):
        raise AssertionError("generate called")
    monkeypatch.setattr("unshuffle.cli.generate", no_draw)
    assert run("gen", "--q", 2 ** 32 + 1, "--lengths", "400,600", "--n", 4000,
               "--lambda", 0.5, *flags, "--out", tmp_path / "corpus.bin") == 2
    assert capsys.readouterr().err.strip() == f"gen: {message}"
    assert list(tmp_path.iterdir()) == []


def test_usage_errors(tmp_path, capsys):
    assert run("bogus-command") == 2
    assert run("unshuffle2", tmp_path / "missing.bin", "--record-len", 10) == 2
    capsys.readouterr()
    assert run("gen", "--q", 3, "--lengths", "4,6", "--n", 10) == 2  # no --out
    assert capsys.readouterr().err.strip() == "gen: --out is required"
    # only the commands that write a corpus or profile take --out
    assert run("verify-prob", "p_n", "--q", 3, "--lengths", "4,6", "--n", 20,
               "--nu", 0.3, "--out", tmp_path / "x") == 2
    assert run("sync-demo", "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes([1, 2, 3]))
    assert run("unshuffle", bad, "--record-len", 2) == 2
    corpus = tmp_path / "m.bin"
    assert run("--seed", 1, "gen", "--q", 16, "--lengths", "2,3", "--n", 4,
               "--perm-counts", "1,2=2;2,1=2", "--out", corpus) == 0
    # the noise threshold and the reference column are not options
    assert run("unshuffle", corpus, "--record-len", 5, "--ref-col", 0) == 2
    assert run("unshuffle", corpus, "--record-len", 5, "--part-max", 3) == 2
    assert run("unshuffle", corpus, "--record-len", 5, "--weight-base", 2) == 2
    # A truth sidecar must be a sidecar document that covers the corpus.
    doc = json.loads((tmp_path / "m.bin.truth.json").read_text())
    short = dict(doc, column_perms=doc["column_perms"][:2])
    longer = dict(doc, block_lengths=[2, 4], template=doc["template"] + [0])
    for sidecar, message in [({}, "malformed truth sidecar"),
                             ([], "malformed truth sidecar"),
                             (dict(doc, template=[1]), "do not fit block lengths"),
                             (dict(doc, noise_loci=[6]), "do not fit block lengths"),
                             (dict(doc, column_perms=[[1, 2, 3]] * 4),
                              "do not fit block lengths"),
                             # every entry, and q, must be a JSON integer
                             (dict(doc, block_lengths=[2.7, 3]), "malformed truth sidecar"),
                             (dict(doc, noise_loci=[1.5]), "malformed truth sidecar"),
                             (dict(doc, noise_loci=[True]), "malformed truth sidecar"),
                             (dict(doc, template=doc["template"][:4] + [False]),
                              "malformed truth sidecar"),
                             (dict(doc, column_perms=[["1", "2"]] * 4),
                              "malformed truth sidecar"),
                             (dict(doc, column_perms=[[True, 2]] + doc["column_perms"][1:]),
                              "malformed truth sidecar"),
                             (dict(doc, column_perms=[[1, 2], [1.0, 2.0], [2, 1], [2, 1]]),
                              "malformed truth sidecar"),
                             # a true or 1.0 in a row that repeats an earlier one
                             (dict(doc, column_perms=[[1, 2], [2, 1], [2, 1], [True, 2]]),
                              "malformed truth sidecar"),
                             (dict(doc, column_perms=[[1, 2], [2, 1], [2, 1], [1.0, 2]]),
                              "malformed truth sidecar"),
                             (dict(doc, column_perms=[12, 21, 12, 21]), "malformed truth sidecar"),
                             (dict(doc, q=16.0), "malformed truth sidecar"),
                             (dict(doc, q="16"), "malformed truth sidecar"),
                             (dict(doc, q=True), "malformed truth sidecar"),
                             (dict(doc, template=[2 ** 70] * 5), "malformed truth sidecar"),
                             (dict(doc, column_perms=[[1, 1]] * 4), "not a permutation"),
                             # template values in [0, q), noise loci strictly increasing
                             (dict(doc, template=[16, 0, 0, 0, 0]), "must lie in [0, 16)"),
                             (dict(doc, template=[0, -1, 0, 0, 0]), "must lie in [0, 16)"),
                             (dict(doc, noise_loci=[3, 3]), "must increase strictly"),
                             (dict(doc, noise_loci=[3, 1]), "must increase strictly"),
                             # ragged permutation rows
                             (dict(doc, column_perms=[[1, 2], [2, 1, 3], [1, 2], [2, 1]]),
                              "do not fit block lengths"),
                             (dict(doc, column_perms=[[1], [2, 1], [1, 2], [2, 1]]),
                              "do not fit block lengths"),
                             (short, "describes 2 records of length 5, "
                                     "corpus has 4 of length 5"),
                             (longer, "describes 4 records of length 6, "
                                      "corpus has 4 of length 5")]:
        truth = tmp_path / "bad.truth.json"
        truth.write_text(json.dumps(sidecar))
        for command in ("unshuffle", "unshuffle2"):
            capsys.readouterr()
            assert run(command, corpus, "--record-len", 5, "--truth", truth) == 2
            assert message in capsys.readouterr().err
    # sync-demo checks q and n with gen's messages.
    for flags, message in [(("--q", 0), "alphabet size must be >= 2, got 0"),
                           (("--q", 1), "alphabet size must be >= 2, got 1"),
                           (("--n", 0), "need at least one message"),
                           (("--n", -1), "need at least one message")]:
        capsys.readouterr()
        assert run("sync-demo", *flags) == 2
        assert capsys.readouterr().err.strip() == f"sync-demo: {message}"
    # verify-prob: the two-block events need a swapped fraction that leaves
    # both sides nonempty, each with the one message; every event needs 100
    # trials.
    sides = "swapped fraction must leave both sides nonempty"
    for event in ("p_n", "p_2", "l0_exact", "l1_exact"):
        for flags, message in [
                (("--n", 20, "--perm-counts", "1,2=10;2,1=10", "--trials", 200),
                 f"{event} needs a two-block swapped fraction, not permutation counts"),
                (("--n", 20, "--nu", 0, "--trials", 200), sides),
                (("--n", 20, "--nu", 1, "--trials", 200), sides),
                (("--n", 1, "--nu", 0.3, "--trials", 200), sides),
                (("--n", 20, "--nu", 0.3, "--trials", 50),
                 "too few trials for a meaningful standard error")]:
            capsys.readouterr()
            assert run("verify-prob", event, "--q", 3, "--lengths", "4,6",
                       "--lambda", 0.5, *flags) == 2
            assert capsys.readouterr().err.strip() == f"verify-prob: {message}"


def test_solver_failure_exit_code(tmp_path, capsys):
    # A constant corpus has no two-valued rows, and a single record has no
    # bipartition: solver-declared failures.  Each writes its report over a
    # stale one that said success.
    flat, single = tmp_path / "flat.bin", tmp_path / "single.bin"
    assert run("--seed", 1, "gen", "--q", 5, "--lengths", "2,3", "--n", 4,
               "--lambda", 0.0, "--nu", 0.0, "--out", flat) == 0
    assert run("--seed", 1, "gen", "--q", 3, "--lengths", "3,3", "--n", 1,
               "--out", single) == 0
    report = tmp_path / "r.json"
    for corpus, record_len, reason in (
            (flat, 5, "no two-valued rows; nothing to unshuffle"),
            (single, 6, "need at least two columns")):
        report.write_text(json.dumps({"success": True}))
        capsys.readouterr()
        assert run("unshuffle2", corpus, "--record-len", record_len,
                   "--json-report", report) == 1
        assert capsys.readouterr().out.splitlines()[0] == "unshuffle2: FAILED"
        doc = json.loads(report.read_text())
        assert doc["command"] == "unshuffle2" and doc["success"] is False
        assert doc["result"] == {"failure_reason": reason}
    assert run("unshuffle2", flat, "--record-len", 5) == 1


# Each case's --truth scoring finds the solver's answer wrong; the report
# and the printed verdict must say so, as the exit code does.
REPORT_VS_EXIT = {
    # Few columns: the two-block solver returns a wrong bipartition.
    "unshuffle2": (("--seed", 3, "gen", "--q", 3, "--lengths", "5,7", "--n", 10,
                    "--lambda", 0.6, "--nu", 0.5), 12),
    # Noiseless q=4, every block order twice: repeated template values give
    # wrong block lengths that no noise row flags, so the solver succeeds.
    "unshuffle": (("--seed", 2, "gen", "--q", 4, "--lengths", "2,3,4", "--n", 12,
                   "--perm-counts", "1,2,3=2;1,3,2=2;2,1,3=2;2,3,1=2;3,1,2=2;3,2,1=2",
                   "--restricted-prefix"), 9),
}


@pytest.mark.parametrize("command", sorted(REPORT_VS_EXIT))
def test_unshuffle2_report_matches_exit_code(tmp_path, capsys, command):
    gen_argv, record_len = REPORT_VS_EXIT[command]
    out = tmp_path / "c.bin"
    assert run(*gen_argv, "--out", out) == 0
    report_path = tmp_path / "r.json"
    capsys.readouterr()
    assert run(command, out, "--record-len", record_len, "--truth", f"{out}.truth.json",
               "--json-report", report_path) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{command}: FAILED"
    report = json.loads(report_path.read_text())
    assert report["success"] is False and report["diagnostics"]["recovered"] is False


def test_gen_word_bytes_auto(tmp_path):
    out = tmp_path / "wide.bin"
    code = run("--seed", 2, "gen", "--q", 1000, "--lengths", "2,3", "--n", 4,
               "--nu", 0.5, "--out", out)
    assert code == 0
    corpus = load_corpus(CorpusSpec(source=out, record_len=5, word_bytes=2))
    assert corpus.values.shape == (5, 4)
    assert int(corpus.values.max()) < 1000


def test_repeated_calls_share_no_state(tmp_path, capsys):
    # The parser is built once per process; flags of one call must not
    # reach the next, and a repeated call must print and exit the same.
    assert build_parser() is build_parser()
    corpus = gen_two_block(tmp_path)
    truth = tmp_path / "corpus.bin.truth.json"
    aligned = tmp_path / "aligned.bin"
    report_path = tmp_path / "report.json"

    def call(*argv):
        capsys.readouterr()
        code = run(*argv)
        out, err = capsys.readouterr()
        return code, out, err

    scored = ("--seed", 7, "unshuffle2", corpus, "--record-len", 100,
              "--truth", truth, "--out", aligned, "--json-report", report_path)
    first = call(*scored)
    assert first[0] == 0 and aligned.exists() and report_path.exists()
    aligned.unlink()
    report_path.unlink()
    bare_report = tmp_path / "bare.json"
    assert call("unshuffle2", corpus, "--record-len", 100,
                "--json-report", bare_report)[0] == 0
    assert not aligned.exists() and not report_path.exists()
    bare = json.loads(bare_report.read_text())
    assert bare["seed"] is None and bare["diagnostics"] == {}
    missing = call("analyze", corpus)  # no --record-len
    assert missing[0] == 2 and "--record-len" in missing[2]
    wide = tmp_path / "wide.bin"
    assert call("--seed", 2, "gen", "--q", 3, "--lengths", "2,3", "--n", 4,
                "--word-bytes", 2, "--out", wide)[0] == 0
    narrow = tmp_path / "narrow.bin"
    assert call("--seed", 2, "gen", "--q", 3, "--lengths", "2,3", "--n", 4,
                "--out", narrow)[0] == 0
    assert (wide.stat().st_size, narrow.stat().st_size) == (40, 20)
    assert call("verify-prob", "p_n", "--q", 3, "--lengths", "4,6", "--n", 20,
                "--nu", 0.3, "--trials", 200)[0] == 0
    assert call(*scored) == first
    assert call("analyze", corpus) == missing
    report = json.loads(report_path.read_text())
    assert report["seed"] == 7 and report["diagnostics"]["recovered"]
    bare_report.unlink()
    assert call("unshuffle2", corpus, "--record-len", 100,
                "--json-report", bare_report)[0] == 0
    assert json.loads(bare_report.read_text()) == bare


# One deliberate fault per invocation at most (in about 4 of 10), so that
# most runs get as far as the Monte Carlo.
VERIFY_PROB_FAULTS = {
    "q": st.sampled_from([0, 1]),
    "lengths": st.sampled_from(["0,3", "4,-1", "x", ""]),
    "n": st.sampled_from([0, -1]),
    "lambda": st.sampled_from([-0.1, 1.5]),
    "nu": st.sampled_from([-0.5, 0.0, 1.0, 2.0]),
    "perm-counts": st.just("1,2=1;2,1=1"),
    "trials": st.sampled_from([-5, 0, 99]),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), event=st.sampled_from(MC_EVENTS),
       q=st.sampled_from([2, 3, 5, 16, 256, 2 ** 32 + 1]), m=st.integers(1, 4),
       wide=st.booleans(), lam=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       nu=st.sampled_from([0.05, 0.3, 0.5, 0.8]),
       prefix=st.sampled_from([(), ("--restricted-prefix",), ("--distinguished-prefix",)]),
       fault=st.sampled_from([None] * 10 + sorted(VERIFY_PROB_FAULTS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_verify_prob_argv_exits_cleanly(data, event, q, m, wide, lam, nu, prefix, fault,
                                        seed):
    # Any verify-prob invocation exits 0, 1 or 2 without a traceback, and a
    # report covers the trials asked for.  A wide model has more than
    # CHUNK_SYMBOLS symbols per trial, so each of its chunks holds one trial.
    # The two-value events and the conserved rows are two-block events.
    m = 2 if event != "prefix_partition" else m
    if wide:
        lengths = data.draw(st.tuples(*[st.integers(60, 100)] * m))
        floor = CHUNK_SYMBOLS // (60 * m) + 1
        n = data.draw(st.integers(floor, floor + 40))
        trials = data.draw(st.integers(100, 130))
    else:
        lengths = data.draw(st.tuples(*[st.integers(1, 8)] * m))
        n = data.draw(st.integers(2, 30))
        trials = data.draw(st.integers(100, 1500))
    flags = {"q": q, "lengths": ",".join(map(str, lengths)), "n": n, "lambda": lam,
             "nu": nu, "trials": trials}
    if event == "prefix_partition" and (m != 2 or data.draw(st.booleans())):
        sigmas = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                                    max_size=4, unique=True))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=len(sigmas) - 1,
                                         max_size=len(sigmas) - 1)))
        flags["perm-counts"] = perm_counts_arg(
            {sigma: hi - lo for sigma, lo, hi in zip(sigmas, [0, *cuts], [*cuts, n])})
    if fault is not None:
        flags[fault] = data.draw(VERIFY_PROB_FAULTS[fault])
    with tempfile.TemporaryDirectory() as work:
        report_path = Path(work) / "report.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run("--seed", seed, "verify-prob", event, *prefix,
                       *[arg for key, value in flags.items() for arg in (f"--{key}", value)],
                       "--json-report", report_path)
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code != 2:
            report = json.loads(report_path.read_text())
            assert report["params"]["trials"] == flags["trials"]
            assert report["success"] == (code == 0)


# As for verify-prob: one deliberate fault per invocation at most.
GEN_FAULTS = {
    "q": st.sampled_from([0, 1]),
    "lengths": st.sampled_from(["0,3", "4,-1", "x", ""]),
    "n": st.sampled_from([0, -1]),
    "lambda": st.sampled_from([-0.1, 1.5]),
    "nu": st.sampled_from([-0.5, 2.0]),
    "perm-counts": st.sampled_from(["1,1=2", "1,2=-1", "1,2=x", "="]),
    "word-bytes": st.sampled_from([3, 8]),
    "out": st.none(),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 5, 256, 257, 2 ** 16, 2 ** 16 + 1,
                                          2 ** 32, 2 ** 32 + 1]),
       m=st.integers(1, 4), wide=st.booleans(), lam=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       nu=st.sampled_from([0.0, 0.3, 0.5, 1.0]), counts=st.booleans(),
       prefix=st.sampled_from(["", "restricted", "distinguished"]),
       word_bytes=st.sampled_from([None, 0, 1, 2, 4]),
       fault=st.sampled_from([None] * 10 + sorted(GEN_FAULTS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gen_argv_exits_cleanly_and_round_trips(data, q, m, wide, lam, nu, counts, prefix,
                                                word_bytes, fault, seed):
    # Any gen invocation exits 0 or 2 without a traceback, and what an exit
    # 0 writes loads back as exactly what generate returns in memory (a
    # --nu fault passes where --perm-counts overrides it).  Wide records
    # make more than one block of BLOCK_ENTRIES entries per corpus.
    m = 2 if not counts else m
    if wide:
        lengths = data.draw(st.tuples(*[st.integers(250, 1000)] * m))
        floor = BLOCK_ENTRIES // sum(lengths) + 1
        n = data.draw(st.integers(floor, floor + 60))
    else:
        lengths = data.draw(st.tuples(*[st.integers(1, 8)] * m))
        n = data.draw(st.integers(1, 30))
    flags = {"q": q, "lengths": ",".join(map(str, lengths)), "n": n, "lambda": lam}
    if counts:
        sigmas = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                                    max_size=4, unique=True))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=len(sigmas) - 1,
                                         max_size=len(sigmas) - 1)))
        shuffle = {sigma: hi - lo for sigma, lo, hi in zip(sigmas, [0, *cuts], [*cuts, n])}
        flags["perm-counts"] = perm_counts_arg(shuffle)
    else:
        shuffle = nu
        flags["nu"] = nu
    if word_bytes is not None:
        flags["word-bytes"] = word_bytes
    if fault is not None:
        flags[fault] = data.draw(GEN_FAULTS[fault])
    with tempfile.TemporaryDirectory() as work:
        flags.setdefault("out", Path(work) / "corpus.bin")
        argv = [arg for key, value in flags.items() if value is not None
                for arg in (f"--{key}", value)]
        if prefix:
            argv.append(f"--{prefix}-prefix")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run("--seed", seed, "gen", *argv)
        assert code in (0, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code != 0:
            return
        corpus, truth = generate(ModelParams(
            q=q, blocks=BlockStructure(lengths), num_messages=n, noise_fraction=lam,
            shuffle=shuffle, restricted_prefix=prefix == "restricted",
            distinguished_prefix=prefix == "distinguished", seed=seed))
        size = word_bytes or word_bytes_for(q)
        loaded = load_corpus(CorpusSpec(source=flags["out"], record_len=sum(lengths),
                                         word_bytes=size))
        assert loaded.values.dtype == WORD_DTYPES[size]
        assert np.array_equal(loaded.values, corpus.values)
        loaded_truth, loaded_q = load_truth(str(flags["out"]) + ".truth.json")
        assert loaded_q == q
        assert np.array_equal(loaded_truth.template, truth.template)
        assert np.array_equal(loaded_truth.noise_loci, truth.noise_loci)
        assert loaded_truth.sigmas == truth.sigmas
        assert np.array_equal(loaded_truth.perm_index, truth.perm_index)
        assert loaded_truth.blocks == truth.blocks


@settings(max_examples=80, deadline=None)
@given(data=st.data(), word_bytes=st.sampled_from([1, 2, 4]), record_len=st.integers(-1, 12),
       n_records=st.integers(1, 12), ragged=st.sampled_from([False] * 3 + [True]),
       source=st.sampled_from(["file"] * 4 + ["directory", "empty", "missing"]))
def test_analyze_argv_exits_cleanly_and_matches_row_uniques(data, word_bytes, record_len,
                                                           n_records, ragged, source):
    # Any analyze invocation exits 0 or 2 without a traceback.  Files hold
    # words of 1, 2 or 4 bytes over a small palette, so that two-valued rows
    # occur; a ragged file (or a directory's extra file) holds a part of a
    # record.  On exit 0 the report and the --out CSV agree with np.unique
    # row by row.
    dtype = WORD_DTYPES[word_bytes]
    width = max(record_len, 1)
    palette = data.draw(st.lists(st.integers(0, 256 ** word_bytes - 1), min_size=1,
                                 max_size=3, unique=True))
    records = np.array(data.draw(st.lists(st.sampled_from(palette),
                                          min_size=n_records * width,
                                          max_size=n_records * width)),
                       dtype=dtype).reshape(n_records, width)
    tail = records[0, :data.draw(st.integers(1, width - 1))] if ragged and width > 1 else None
    with tempfile.TemporaryDirectory() as work:
        corpus, csv_path, report_path = (Path(work) / name for name in
                                         ("corpus", "profile.csv", "report.json"))
        if source == "file":
            corpus.write_bytes(records.tobytes() + (b"" if tail is None else tail.tobytes()))
        elif source == "directory":
            corpus.mkdir()
            for i, record in enumerate([*records, *([] if tail is None else [tail])]):
                (corpus / f"{i:03d}.bin").write_bytes(record.tobytes())
        elif source == "empty":
            corpus.write_bytes(b"")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run("analyze", corpus, "--record-len", record_len, "--word-bytes",
                       word_bytes, "--out", csv_path, "--json-report", report_path)
        assert code in (0, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert (code == 0) == (source in ("file", "directory") and record_len >= 1
                               and tail is None)
        if code != 0:
            return
        sizes = [len(np.unique(row)) for row in records.T]
        report = json.loads(report_path.read_text())
        assert report["result"]["rows"] == record_len
        assert report["result"]["cols"] == n_records
        assert report["result"]["max_partition_size"] == max(sizes)
        assert report["result"]["two_valued_rows"] == [
            row + 1 for row, size in enumerate(sizes) if size == 2]
        assert report["diagnostics"]["partition_sizes"] == sizes
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["row", "partition_size"]] + [
            [str(row), str(size)] for row, size in enumerate(sizes, start=1)]


@pytest.mark.parametrize("event", ["p_n", "p_2", "l0_exact", "l1_exact"])
def test_verify_prob_empty_side_is_a_usage_error_at_any_q(event, capsys):
    # With an empty side the closed form's power overflows for a wide
    # alphabet; the side check comes first.
    assert run("--seed", 0, "verify-prob", event, "--q", 2 ** 32 + 1, "--lengths", "60,60",
               "--n", 137, "--lambda", 0.5, "--nu", 0, "--trials", 100) == 2
    assert capsys.readouterr().err.strip() == \
        "verify-prob: swapped fraction must leave both sides nonempty"


def test_verify_prob_p2_with_a_side_of_over_1024_columns(tmp_path):
    # 2**(c - 1) for a side of c columns overflows past c = 1024: the closed
    # form was NaN from N = 1028 and raised OverflowError at N = 2100.
    report = tmp_path / "p2.json"
    assert run("--seed", 1, "verify-prob", "p_2", "--q", 3, "--lengths", "4,6", "--n", 2100,
               "--lambda", 0.5, "--nu", 0.5, "--trials", 200,
               "--json-report", report) in (0, 1)
    doc = json.loads(report.read_text())
    assert math.isfinite(doc["result"]["closed_form"])
    assert doc["success"] == doc["result"]["agrees"]


def run_captured(*argv):
    """``run(*argv)`` with its printed output captured: (exit code, text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, out.getvalue() + err.getvalue()


# One deliberate fault per invocation at most, as for gen and verify-prob.
SOLVER_FAULTS = {
    "record-len": st.sampled_from([-1, 0, "x"]),
    "word-bytes": st.sampled_from([3, 8]),
    "truth": st.sampled_from(["{}", "[", '{"q": 3}']),
    "corpus": st.sampled_from(["missing", "empty", "ragged"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(["unshuffle2", "unshuffle"]),
       source=st.sampled_from(["gen"] * 3 + ["palette", "directory"]),
       q=st.sampled_from([2, 3, 5, 16, 256, 1000]), m=st.integers(1, 4),
       lam=st.sampled_from([0.0, 0.2, 0.5]), prefix=st.sampled_from([(), ("--restricted-prefix",)]),
       scored=st.booleans(), aligned=st.booleans(),
       fault=st.sampled_from([None] * 8 + sorted(SOLVER_FAULTS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solver_argv_exits_cleanly(data, command, source, q, m, lam, prefix, scored, aligned,
                                   fault, seed):
    # Any unshuffle2 or unshuffle invocation exits 0, 1 or 2 without a
    # traceback, exits 2 exactly when it holds a fault, and a written
    # report's success is the exit code's.  Files hold a corpus that gen
    # wrote (with its truth sidecar), or random words over a small palette
    # in one file or one record per file; either solver gets either kind.
    lengths = data.draw(st.tuples(*[st.integers(1, 8)] * m))
    record_len = sum(lengths)
    n = data.draw(st.integers(1, 30))
    with tempfile.TemporaryDirectory() as work:
        corpus, truth, out, report_path = (Path(work) / name for name in
                                           ("corpus", "corpus.truth.json", "out", "r.json"))
        if source == "gen":
            sigmas = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                                        max_size=4, unique=True))
            cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=len(sigmas) - 1,
                                             max_size=len(sigmas) - 1)))
            counts = perm_counts_arg({sigma: hi - lo for sigma, lo, hi
                                      in zip(sigmas, [0, *cuts], [*cuts, n])})
            code, _ = run_captured("--seed", seed, "gen", "--q", q, "--lengths",
                                   ",".join(map(str, lengths)), "--n", n, "--lambda", lam,
                                   "--perm-counts", counts, *prefix, "--out", corpus)
            assume(code == 0)  # the prefix flags leave too few loci for some lengths
            word_bytes = word_bytes_for(q)
        else:
            word_bytes = data.draw(st.sampled_from([1, 2, 4]))
            palette = data.draw(st.lists(st.integers(0, 256 ** word_bytes - 1), min_size=1,
                                         max_size=3, unique=True))
            records = np.array(data.draw(st.lists(st.sampled_from(palette),
                                                  min_size=n * record_len,
                                                  max_size=n * record_len)),
                               dtype=WORD_DTYPES[word_bytes]).reshape(n, record_len)
            if source == "palette":
                corpus.write_bytes(records.tobytes())
            else:
                corpus.mkdir()
                for i, record in enumerate(records):
                    (corpus / f"{i:03d}.bin").write_bytes(record.tobytes())
        flags = {"record-len": record_len, "word-bytes": word_bytes}
        if scored and source == "gen":
            flags["truth"] = truth
        if aligned:
            flags["out"] = out
        if fault == "truth":
            truth.write_text(data.draw(SOLVER_FAULTS["truth"]))
            flags["truth"] = truth
        elif fault == "corpus":
            kind = data.draw(SOLVER_FAULTS["corpus"])
            # A one-byte record has no part to cut a ragged file at.
            assume(source != "directory" and (kind != "ragged" or record_len * word_bytes > 1))
            if kind == "missing":
                corpus.unlink()
            else:
                size = corpus.stat().st_size
                with open(corpus, "r+b") as handle:
                    handle.truncate(0 if kind == "empty" else size - 1)
        elif fault is not None:
            flags[fault] = data.draw(SOLVER_FAULTS[fault])
        code, text = run_captured(command, corpus, "--json-report", report_path,
                                  *[arg for key, value in flags.items()
                                    for arg in (f"--{key}", value)])
        assert code in (0, 1, 2)
        assert "Traceback" not in text
        assert (code == 2) == (fault is not None), text
        if code != 2:
            assert json.loads(report_path.read_text())["success"] == (code == 0)
            if aligned and out.exists():
                assert out.stat().st_size == n * record_len * word_bytes


SYNC_DEMO_FAULTS = {
    "q": st.sampled_from([0, 1]),
    "lengths": st.sampled_from(["0,3", "4,-1", "x", ""]),
    "n": st.sampled_from([0, -1]),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 17, 256]), m=st.integers(1, 4),
       n=st.integers(1, 4), fault=st.sampled_from([None] * 6 + sorted(SYNC_DEMO_FAULTS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sync_demo_argv_exits_cleanly(data, q, m, n, fault, seed):
    # Any sync-demo invocation exits 0, 1 or 2 without a traceback, and a
    # written report's success is the exit code's.  The search enumerates
    # (M!)**N assignments: at most 6**4 here, or so many (24**5 and more)
    # that it is refused before enumerating.
    if m == 4 and n >= 2:
        n = data.draw(st.integers(5, 8))
    flags = {"q": q, "lengths": ",".join(map(str, data.draw(st.tuples(*[st.integers(1, 4)] * m)))),
             "n": n}
    if fault is not None:
        flags[fault] = data.draw(SYNC_DEMO_FAULTS[fault])
    with tempfile.TemporaryDirectory() as work:
        report_path = Path(work) / "sync.json"
        code, text = run_captured("--seed", seed, "sync-demo", "--json-report", report_path,
                                  *[arg for key, value in flags.items()
                                    for arg in (f"--{key}", value)])
        assert code in (0, 1, 2)
        assert "Traceback" not in text
        assert (code == 2) == (fault is not None or math.factorial(m) ** n > SEARCH_CAP), text
        if code != 2:
            report = json.loads(report_path.read_text())
            assert report["success"] == (code == 0) == report["result"]["synchronized"]
