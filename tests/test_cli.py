"""Command-line surface: round trips, exit codes, determinism."""

import json

from unshuffle.cli import cli_main
from unshuffle.corpus_io import CorpusSpec, load_corpus


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


def test_sync_demo():
    assert run("--seed", 5, "sync-demo") == 0


def test_usage_errors(tmp_path, capsys):
    assert run("bogus-command") == 2
    assert run("unshuffle2", tmp_path / "missing.bin", "--record-len", 10) == 2
    assert run("gen", "--q", 3, "--lengths", "4,6", "--n", 10) == 2  # no --out
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes([1, 2, 3]))
    assert run("unshuffle", bad, "--record-len", 2) == 2
    corpus = tmp_path / "m.bin"
    assert run("--seed", 1, "gen", "--q", 16, "--lengths", "2,3", "--n", 4,
               "--perm-counts", "1,2=2;2,1=2", "--out", corpus) == 0
    assert run("unshuffle", corpus, "--record-len", 5, "--ref-col", 4) == 2
    assert run("unshuffle", corpus, "--record-len", 5, "--part-max", 0) == 2
    assert run("unshuffle", corpus, "--record-len", 5, "--part-max", -3) == 2
    assert run("unshuffle", corpus, "--record-len", 5, "--weight-base", 2) == 2
    # sync-demo checks q and n with gen's messages.
    for flags, message in [(("--q", 0), "alphabet size must be >= 2, got 0"),
                           (("--q", 1), "alphabet size must be >= 2, got 1"),
                           (("--n", 0), "need at least one message"),
                           (("--n", -1), "need at least one message")]:
        capsys.readouterr()
        assert run("sync-demo", *flags) == 2
        assert capsys.readouterr().err.strip() == f"sync-demo: {message}"
    # verify-prob: the two-block events need a swapped fraction that leaves
    # both sides nonempty; every event needs 100 trials.
    for event in ("p_n", "p_2", "l0_exact", "l1_exact"):
        sides = ("swapped fraction must leave both sides nonempty"
                 if event in ("p_n", "p_2")
                 else "swapped column set must be nonempty and proper")
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


def test_solver_failure_exit_code(tmp_path):
    # a constant corpus has no two-valued rows: solver-declared failure
    out = tmp_path / "flat.bin"
    code = run("--seed", 1, "gen", "--q", 5, "--lengths", "2,3", "--n", 4,
               "--lambda", 0.0, "--nu", 0.0, "--out", out)
    assert code == 0
    assert run("unshuffle2", out, "--record-len", 5) == 1


def test_gen_word_bytes_auto(tmp_path):
    out = tmp_path / "wide.bin"
    code = run("--seed", 2, "gen", "--q", 1000, "--lengths", "2,3", "--n", 4,
               "--nu", 0.5, "--out", out)
    assert code == 0
    corpus = load_corpus(CorpusSpec(source=out, record_len=5, word_bytes=2))
    assert corpus.values.shape == (5, 4)
    assert int(corpus.values.max()) < 1000
